(* Metadata bits, one byte per object id. An id with byte 0 has never been
   allocated ("absent"): treated as remote-and-empty if ever localized. *)
let bit_exists = 0x01
let bit_local = 0x02
let bit_dirty = 0x04
let bit_hot = 0x08
let bit_prefetched = 0x10
let bit_swapped = 0x20 (* a remote copy exists *)

exception Out_of_local_memory

type policy = Clock_hand | Fifo

type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  net : Net.t;
  policy : policy;
  osize : int;
  addr_of_id : int -> int;
  budget : int;
  mutable meta : Bytes.t;
  mutable used : int;
  mutable nlocal : int;
  clock_queue : int Queue.t; (* CLOCK second-chance candidate ring *)
  pins : (int, int) Hashtbl.t;
  mutable telemetry : Telemetry.Sink.t;
  (* Handles on the counters of the fault-free path, resolved once at
     [create]. *)
  c_writebacks : Clock.counter;
  c_evictions : Clock.counter;
  c_materialized : Clock.counter;
  c_demand_fetches : Clock.counter;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ?(policy = Clock_hand) ?(telemetry = Telemetry.Sink.nop)
    ?addr_of_id cost clock ~net ~object_size ~local_budget =
  if not (is_pow2 object_size && object_size >= 16 && object_size <= 65536)
  then invalid_arg "Pool.create: object_size";
  Telemetry.Sink.attach_net telemetry net;
  {
    cost;
    clock;
    net;
    policy;
    osize = object_size;
    (* Replication keys objects by their main-store base address; the
       default covers pools whose id space is the address space scaled
       by the object size (tests, simple heaps). *)
    addr_of_id =
      (match addr_of_id with
      | Some f -> f
      | None -> fun id -> id * object_size);
    budget = local_budget;
    meta = Bytes.make 4096 '\000';
    used = 0;
    nlocal = 0;
    clock_queue = Queue.create ();
    pins = Hashtbl.create 16;
    telemetry;
    c_writebacks = Clock.counter clock "aifm.writebacks";
    c_evictions = Clock.counter clock "aifm.evictions";
    c_materialized = Clock.counter clock "aifm.materialized";
    c_demand_fetches = Clock.counter clock "aifm.demand_fetches";
  }

let telemetry t = t.telemetry

let set_telemetry t sink =
  t.telemetry <- sink;
  Telemetry.Sink.attach_net sink t.net

let object_size t = t.osize
let local_budget t = t.budget
let local_used t = t.used
let local_count t = t.nlocal

let ensure_capacity t id =
  let n = Bytes.length t.meta in
  if id >= n then begin
    let n' = max (id + 1) (n * 2) in
    let meta' = Bytes.make n' '\000' in
    Bytes.blit t.meta 0 meta' 0 n;
    t.meta <- meta'
  end

let get_meta t id =
  if id < Bytes.length t.meta then Char.code (Bytes.get t.meta id) else 0

let set_meta t id m =
  ensure_capacity t id;
  Bytes.set t.meta id (Char.chr m)

let pinned t id =
  match Hashtbl.find_opt t.pins id with Some n -> n > 0 | None -> false

let pin t id =
  let n = try Hashtbl.find t.pins id with Not_found -> 0 in
  Hashtbl.replace t.pins id (n + 1)

let unpin t id =
  match Hashtbl.find_opt t.pins id with
  | Some n when n > 1 -> Hashtbl.replace t.pins id (n - 1)
  | Some _ -> Hashtbl.remove t.pins id
  | None -> invalid_arg "Pool.unpin: not pinned"

let is_local t id = get_meta t id land bit_local <> 0

(* One sweep step of the CLOCK hand. Returns true if something was
   evicted. Hot objects get a second chance; pinned objects are skipped
   (requeued) — this is the evacuator barrier of Section 3.3. With
   [allow_writeback:false] (remote unreachable: circuit breaker open)
   dirty objects are also skipped: their only copy cannot be pushed out,
   so the evacuator degrades to dropping clean objects. *)
let evict_one_with ~allow_writeback t =
  let attempts = ref (2 * Queue.length t.clock_queue) in
  let rec go () =
    if Queue.is_empty t.clock_queue || !attempts = 0 then false
    else begin
      decr attempts;
      let id = Queue.pop t.clock_queue in
      let m = get_meta t id in
      if m land bit_local = 0 then go () (* stale entry *)
      else if pinned t id then begin
        Queue.push id t.clock_queue;
        go ()
      end
      else if t.policy = Clock_hand && m land bit_hot <> 0 then begin
        set_meta t id (m land lnot bit_hot);
        Queue.push id t.clock_queue;
        go ()
      end
      else if (not allow_writeback) && m land bit_dirty <> 0 then begin
        Queue.push id t.clock_queue;
        go ()
      end
      else begin
        let swapped =
          if m land bit_dirty <> 0 then begin
            Net.writeback_object t.net ~key:(t.addr_of_id id) ~bytes:t.osize;
            Clock.bump t.c_writebacks 1;
            Telemetry.Sink.writeback_event t.telemetry ~bytes:t.osize;
            bit_swapped
          end
          else m land bit_swapped
        in
        set_meta t id (bit_exists lor swapped);
        t.used <- t.used - t.osize;
        t.nlocal <- t.nlocal - 1;
        Clock.tick t.clock t.cost.Cost_model.evict_object;
        Clock.bump t.c_evictions 1;
        Telemetry.Sink.evict_event t.telemetry;
        true
      end
    end
  in
  go ()

let evict_one t = evict_one_with ~allow_writeback:true t

(* The evacuator's degraded mode: while the remote is unreachable it
   sheds clean objects only, and if even that fails it defers — local
   memory absorbs the overshoot, and the next pressure event after
   recovery drains it back under budget (the [while] re-checks from the
   top). Only a pinned-everything state with a reachable remote is a
   genuine OOM. *)
let evict_until_fits t =
  (* Making room is charged to the eviction-stall category: resync
     orchestration, CLOCK sweeps, writeback enqueues and the eviction
     ticks themselves (transport stalls nested inside keep their own
     retry/failover attribution). *)
  Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Evict_stall;
  Fun.protect
    ~finally:(fun () -> Telemetry.Sink.cat_exit t.telemetry)
    (fun () ->
      (* The evacuator doubles as the recovery driver: each pressure event
         advances background re-replication onto any recovering node. *)
      ignore (Net.resync_step t.net : int);
      let deferred = ref false in
      while (not !deferred) && t.used > t.budget do
        let allow_writeback = Net.remote_available t.net in
        if evict_one_with ~allow_writeback t then ()
        else if allow_writeback then raise Out_of_local_memory
        else begin
          Clock.count t.clock "aifm.evictions_deferred" 1;
          deferred := true
        end
      done)

let make_local t id m =
  set_meta t id (m lor bit_exists lor bit_local lor bit_hot);
  t.used <- t.used + t.osize;
  t.nlocal <- t.nlocal + 1;
  Queue.push id t.clock_queue;
  (* The object being localized is in use by the caller (it is inside a
     guard or DerefScope): the evacuator must not pick it. *)
  pin t id;
  Fun.protect ~finally:(fun () -> unpin t id) (fun () -> evict_until_fits t)

let materialize t id =
  let m = get_meta t id in
  if m land bit_local = 0 then begin
    Clock.bump t.c_materialized 1;
    make_local t id (m lor bit_dirty)
  end

let ensure_local t id =
  let m = get_meta t id in
  if m land bit_local <> 0 then
    set_meta t id (m lor bit_hot)
  else if m land bit_swapped = 0 then begin
    (* Never written (or never existed): fresh backing, no remote copy to
       fetch — the analogue of an anonymous first-touch fault. *)
    Clock.tick t.clock 50;
    Clock.bump t.c_materialized 1;
    make_local t id (m land lnot bit_prefetched)
  end
  else begin
    (if m land bit_prefetched <> 0 then begin
       Net.fetch_object_prefetched t.net ~key:(t.addr_of_id id) ~bytes:t.osize;
       Telemetry.Sink.fetch_event t.telemetry ~bytes:t.osize ~prefetched:true
     end
     else begin
       Net.fetch_object t.net ~key:(t.addr_of_id id) ~bytes:t.osize;
       Clock.bump t.c_demand_fetches 1;
       Telemetry.Sink.fetch_event t.telemetry ~bytes:t.osize ~prefetched:false
     end);
    make_local t id (m land lnot bit_prefetched)
  end

let mark_dirty t id =
  let m = get_meta t id in
  set_meta t id (m lor bit_dirty)

let mark_prefetched t id =
  let m = get_meta t id in
  (* Prefetching only makes sense for objects with a remote copy. *)
  if m land bit_local = 0 && m land bit_swapped <> 0 then
    set_meta t id (m lor bit_prefetched)

let discard t id =
  if not (pinned t id) then begin
    let m = get_meta t id in
    if m land bit_local <> 0 then begin
      t.used <- t.used - t.osize;
      t.nlocal <- t.nlocal - 1
    end;
    set_meta t id 0
  end
