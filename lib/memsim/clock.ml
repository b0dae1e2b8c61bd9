(* A named counter. [listed] records whether it was bumped since the last
   [reset]: taking a handle must not make a name appear in [counters]. *)
type counter = { mutable value : int; mutable listed : bool }

type t = {
  mutable cycles : int;
  (* Cycles folded in from [reset]s, so [monotonic] never jumps backward
     across the !bench_begin boundary (crash schedules and replication
     timestamps must live on one continuous timeline). *)
  mutable folded : int;
  table : (string, counter) Hashtbl.t;
  (* Sampling hook: [sampler] fires every [sample_interval] cycles (from
     the moment it is installed). [next_sample] is [max_int] when no
     sampler is installed, so the common-case cost in [tick] is a single
     integer compare. *)
  mutable sample_interval : int;
  mutable next_sample : int;
  mutable sampler : (t -> unit) option;
}

let create () =
  {
    cycles = 0;
    folded = 0;
    table = Hashtbl.create 16;
    sample_interval = 0;
    next_sample = max_int;
    sampler = None;
  }

let rec fire t =
  match t.sampler with
  | None -> t.next_sample <- max_int
  | Some f ->
      f t;
      t.next_sample <- t.next_sample + t.sample_interval;
      if t.cycles >= t.next_sample then fire t

(* [@inline] so the add-and-compare lands inside the interpreter and
   compiled-engine hot loops instead of costing a call per charge. *)
let[@inline] tick t n =
  assert (n >= 0);
  t.cycles <- t.cycles + n;
  if t.cycles >= t.next_sample then fire t

let cycles t = t.cycles
let monotonic t = t.folded + t.cycles

let counter t name =
  match Hashtbl.find_opt t.table name with
  | Some c -> c
  | None ->
      let c = { value = 0; listed = false } in
      Hashtbl.replace t.table name c;
      c

let[@inline] bump c n =
  c.value <- c.value + n;
  c.listed <- true

let value c = c.value
let count t name n = bump (counter t name) n

let get t name =
  match Hashtbl.find_opt t.table name with Some c -> c.value | None -> 0

let counters t =
  Hashtbl.fold
    (fun k c acc -> if c.listed then (k, c.value) :: acc else acc)
    t.table []
  |> List.sort compare

let set_sampler t ~interval f =
  if interval <= 0 then invalid_arg "Clock.set_sampler: interval must be > 0";
  t.sample_interval <- interval;
  t.next_sample <- t.cycles + interval;
  t.sampler <- Some f

let clear_sampler t =
  t.sampler <- None;
  t.sample_interval <- 0;
  t.next_sample <- max_int

let reset t =
  t.folded <- t.folded + t.cycles;
  t.cycles <- 0;
  (* In place, so handles taken before the reset keep counting. *)
  Hashtbl.iter
    (fun _ c ->
      c.value <- 0;
      c.listed <- false)
    t.table;
  match t.sampler with
  | Some _ -> t.next_sample <- t.sample_interval
  | None -> t.next_sample <- max_int
