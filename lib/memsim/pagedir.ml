let slot_bits = 9
let slots = 1 lsl slot_bits
let slot_mask = slots - 1
let seg_shift = 2 * slot_bits

(* An untouched segment's directory and an untouched directory slot's
   leaf are both the empty array, so an empty map allocates nothing
   beyond this record; reads test for it, [set] replaces it. *)
type 'a t = {
  default : 'a;
  (* The segment used last and its directory. *)
  mutable key : int;
  mutable dir : 'a array array;
  (* Materialized segments, [nsegs] of them, in creation order. *)
  mutable keys : int array;
  mutable dirs : 'a array array array;
  mutable nsegs : int;
}

let create default =
  { default; key = 0; dir = [||]; keys = [||]; dirs = [||]; nsegs = 0 }

(* Slow path of the segment lookup: a linear scan (the simulator touches
   three to four segments: globals and low addresses, stack, heap). An
   absent segment resolves to the empty directory, which is cached like
   any other. *)
let find t key =
  let rec scan i =
    if i = t.nsegs then [||]
    else if Array.unsafe_get t.keys i = key then Array.unsafe_get t.dirs i
    else scan (i + 1)
  in
  let dir = scan 0 in
  t.key <- key;
  t.dir <- dir;
  dir

let[@inline] get t idx =
  let key = idx lsr seg_shift in
  let dir = if key = t.key then t.dir else find t key in
  if Array.length dir = 0 then t.default
  else
    let leaf = Array.unsafe_get dir ((idx lsr slot_bits) land slot_mask) in
    if Array.length leaf = 0 then t.default
    else Array.unsafe_get leaf (idx land slot_mask)

let add_segment t key =
  let dir = Array.make slots [||] in
  if t.nsegs = Array.length t.keys then begin
    let n = max 4 (2 * t.nsegs) in
    let keys = Array.make n 0 and dirs = Array.make n [||] in
    Array.blit t.keys 0 keys 0 t.nsegs;
    Array.blit t.dirs 0 dirs 0 t.nsegs;
    t.keys <- keys;
    t.dirs <- dirs
  end;
  t.keys.(t.nsegs) <- key;
  t.dirs.(t.nsegs) <- dir;
  t.nsegs <- t.nsegs + 1;
  t.key <- key;
  t.dir <- dir;
  dir

let set t idx v =
  let key = idx lsr seg_shift in
  let dir = if key = t.key then t.dir else find t key in
  let dir = if Array.length dir = 0 then add_segment t key else dir in
  let slot = (idx lsr slot_bits) land slot_mask in
  let leaf = Array.unsafe_get dir slot in
  let leaf =
    if Array.length leaf > 0 then leaf
    else begin
      let leaf = Array.make slots t.default in
      Array.unsafe_set dir slot leaf;
      leaf
    end
  in
  Array.unsafe_set leaf (idx land slot_mask) v
