let page_size = 4096
let page_bits = 12
let page_mask = page_size - 1

type t = { pages : Bytes.t Pagedir.t }

(* What an untouched page index reads as in [pages]: a zero-length
   sentinel no caller ever sees, replaced by a zeroed page on first
   touch. *)
let absent = Bytes.create 0

let create () = { pages = Pagedir.create absent }

(* Out of line, so that [page] stays small enough to inline into every
   accessor. *)
let materialize t idx =
  let p = Bytes.make page_size '\000' in
  Pagedir.set t.pages idx p;
  p

let[@inline] page t idx =
  let p = Pagedir.get t.pages idx in
  if p != absent then p else materialize t idx

(* Pages are only ever created, never dropped or replaced, so a handle
   returned here stays the backing store of its index for the lifetime of
   [t] — the compiled engine's per-site page caches rely on that. *)
let page_of t idx = page t idx

let rec load t ~addr ~size =
  let off = addr land page_mask in
  if off + size <= page_size then begin
    let p = page t (addr lsr page_bits) in
    match size with
    | 1 -> Char.code (Bytes.get p off)
    | 2 -> Bytes.get_uint16_le p off
    | 4 -> Int32.to_int (Bytes.get_int32_le p off) land 0xFFFFFFFF
    | 8 ->
        (* Truncate to 63 bits so the result stays a valid OCaml int. *)
        Int64.to_int (Bytes.get_int64_le p off) land max_int
    | _ -> invalid_arg "Memstore.load: size"
  end
  else begin
    (* Access spans a page boundary: assemble byte by byte, then clear the
       sign bit as the in-page 8-byte path does. *)
    let v = ref 0 in
    for k = size - 1 downto 0 do
      v := (!v lsl 8) lor load t ~addr:(addr + k) ~size:1
    done;
    !v land max_int
  end

let rec store t ~addr ~size v =
  let off = addr land page_mask in
  if off + size <= page_size then begin
    let p = page t (addr lsr page_bits) in
    match size with
    | 1 -> Bytes.set p off (Char.unsafe_chr (v land 0xFF))
    | 2 -> Bytes.set_uint16_le p off (v land 0xFFFF)
    | 4 -> Bytes.set_int32_le p off (Int32.of_int v)
    | 8 -> Bytes.set_int64_le p off (Int64.of_int v)
    | _ -> invalid_arg "Memstore.store: size"
  end
  else
    for k = 0 to size - 1 do
      store t ~addr:(addr + k) ~size:1 ((v lsr (k * 8)) land 0xFF)
    done

let load_float t ~addr =
  let off = addr land page_mask in
  if off + 8 <= page_size then
    Int64.float_of_bits (Bytes.get_int64_le (page t (addr lsr page_bits)) off)
  else begin
    let bits = ref 0L in
    for k = 7 downto 0 do
      bits :=
        Int64.logor
          (Int64.shift_left !bits 8)
          (Int64.of_int (load t ~addr:(addr + k) ~size:1))
    done;
    Int64.float_of_bits !bits
  end

let store_float t ~addr x =
  let off = addr land page_mask in
  if off + 8 <= page_size then
    Bytes.set_int64_le (page t (addr lsr page_bits)) off (Int64.bits_of_float x)
  else begin
    let bits = Int64.bits_of_float x in
    for k = 0 to 7 do
      store t ~addr:(addr + k) ~size:1
        (Int64.to_int (Int64.shift_right_logical bits (k * 8)) land 0xFF)
    done
  end

(* Full-fidelity 64-bit accessors for byte movers (replication,
   checksums): [load ~size:8] truncates to OCaml's 63-bit int, which
   would silently clear the top bit of every word copied through it —
   e.g. the sign bit of negative doubles. *)
let load64 t ~addr =
  let off = addr land page_mask in
  if off + 8 <= page_size then
    Bytes.get_int64_le (page t (addr lsr page_bits)) off
  else begin
    let v = ref 0L in
    for k = 7 downto 0 do
      v :=
        Int64.logor
          (Int64.shift_left !v 8)
          (Int64.of_int (load t ~addr:(addr + k) ~size:1))
    done;
    !v
  end

let store64 t ~addr v =
  let off = addr land page_mask in
  if off + 8 <= page_size then
    Bytes.set_int64_le (page t (addr lsr page_bits)) off v
  else
    for k = 0 to 7 do
      store t ~addr:(addr + k) ~size:1
        (Int64.to_int (Int64.shift_right_logical v (k * 8)) land 0xFF)
    done

let blit t ~src ~dst ~len =
  (* Conservative byte copy; realloc volumes are small in the workloads. *)
  for k = 0 to len - 1 do
    store t ~addr:(dst + k) ~size:1 (load t ~addr:(src + k) ~size:1)
  done
