let page_size = Memstore.page_size
let page_bits = 12

(* Per-page state bits. *)
let bit_present = 0x1
let bit_dirty = 0x2
let bit_hot = 0x4
let bit_swapped = 0x8 (* has a remote copy *)

type t = {
  cost : Cost_model.t;
  clock : Clock.t;
  net : Net.t;
  budget_pages : int;
  readahead : int;
  state : int Pagedir.t; (* page index -> bits, 0 when never touched *)
  lru : int Queue.t;
  mutable present : int;
  telemetry : Telemetry.Sink.t;
  (* Handles on the counters of the fault-free path, resolved once at
     [create]. *)
  c_writebacks : Clock.counter;
  c_evictions : Clock.counter;
  c_major : Clock.counter;
  c_readahead : Clock.counter;
  c_minor : Clock.counter;
}

let create ?(readahead = 0) ?(faults = Faults.disabled) ?cluster
    ?(telemetry = Telemetry.Sink.nop) cost clock ~local_budget =
  let net = Net.create ~faults ?cluster cost clock Net.Rdma in
  Telemetry.Sink.attach_net telemetry net;
  (* The kernel swap path has no green threads to yield to, but retry
     backoff and outage waits still release the (simulated) core when a
     scheduler happens to be present. *)
  Net.set_stall_handler net (fun ~cycles ->
      ignore (Shenango.Sched.try_block cycles));
  {
    cost;
    clock;
    net;
    budget_pages = max 1 (local_budget / page_size);
    readahead;
    state = Pagedir.create 0;
    lru = Queue.create ();
    present = 0;
    telemetry;
    c_writebacks = Clock.counter clock "fastswap.writebacks";
    c_evictions = Clock.counter clock "fastswap.evictions";
    c_major = Clock.counter clock "fastswap.major_faults";
    c_readahead = Clock.counter clock "fastswap.readahead_pages";
    c_minor = Clock.counter clock "fastswap.minor_faults";
  }

let net t = t.net
let get_state t p = Pagedir.get t.state p
let set_state t p s = Pagedir.set t.state p s

let is_present t ~addr = get_state t (addr lsr page_bits) land bit_present <> 0
let present_pages t = t.present

(* Second-chance reclaim, the kernel's approximated LRU. With
   [allow_writeback:false] (remote unreachable) dirty pages are skipped:
   their only copy cannot be pushed out, so reclaim degrades to dropping
   clean pages — the same backpressure absorption as the AIFM
   evacuator's. *)
let reclaim_one_with ~allow_writeback t =
  let attempts = ref (2 * Queue.length t.lru) in
  let rec go () =
    if Queue.is_empty t.lru || !attempts = 0 then false
    else begin
      decr attempts;
      let p = Queue.pop t.lru in
      let s = get_state t p in
      if s land bit_present = 0 then go ()
      else if s land bit_hot <> 0 then begin
        set_state t p (s land lnot bit_hot);
        Queue.push p t.lru;
        go ()
      end
      else if (not allow_writeback) && s land bit_dirty <> 0 then begin
        Queue.push p t.lru;
        go ()
      end
      else begin
        if s land bit_dirty <> 0 then begin
          Net.writeback_object t.net ~key:(p lsl page_bits) ~bytes:page_size;
          Clock.bump t.c_writebacks 1
        end;
        set_state t p ((s lor bit_swapped) land lnot (bit_present lor bit_dirty));
        t.present <- t.present - 1;
        Clock.tick t.clock t.cost.Cost_model.evict_page;
        Clock.bump t.c_evictions 1;
        true
      end
    end
  in
  go ()

let reclaim_until_fits t =
  (* Reclaim work is the swap path's eviction stall; transport stalls
     nested inside keep their own retry/failover attribution. *)
  Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Evict_stall;
  Fun.protect
    ~finally:(fun () -> Telemetry.Sink.cat_exit t.telemetry)
    (fun () ->
      (* The reclaim core doubles as the recovery driver (Fastswap's
         dedicated reclaim CPU): each pass advances re-replication onto
         any recovering remote node. *)
      ignore (Net.resync_step t.net : int);
      let deferred = ref false in
      while (not !deferred) && t.present > t.budget_pages do
        let allow_writeback = Net.remote_available t.net in
        if reclaim_one_with ~allow_writeback t then ()
        else if allow_writeback then
          (* Nothing reclaimable: a kernel would OOM; surface it. *)
          failwith "Fastswap: local memory exhausted with nothing reclaimable"
        else begin
          (* Outage: every reclaimable page is dirty and the writeback
             path is down. Defer — present pages overshoot the budget
             until the remote recovers and the next reclaim drains the
             excess. *)
          Clock.count t.clock "fastswap.reclaim_deferred" 1;
          deferred := true
        end
      done)

(* A write fault maps the PTE dirty immediately (as the kernel does), so
   the map-time reclaim pass already sees the new page as unevictable
   without a writeback. Read faults and readahead map clean. *)
let map_page t p ~hot ~dirty =
  let s = get_state t p in
  set_state t p
    (s lor bit_present
    lor (if hot then bit_hot else 0)
    lor if dirty then bit_dirty else 0);
  t.present <- t.present + 1;
  Queue.push p t.lru;
  reclaim_until_fits t

(* Page faults are the paging analogue of the guard slow path: the
   whole fault (kernel software cost, RDMA read, readahead, map-time
   reclaim) is one slow-path window on the open span. *)
let fault_page t p ~write =
  Telemetry.Sink.cat_enter t.telemetry Telemetry.Span.Guard_slow;
  Fun.protect ~finally:(fun () -> Telemetry.Sink.cat_exit t.telemetry)
  @@ fun () ->
  let s = get_state t p in
  if s land bit_swapped <> 0 then begin
    (* Major fault: kernel software path plus the RDMA page read. *)
    Clock.tick t.clock t.cost.Cost_model.fastswap_fault_base;
    Net.fetch_object t.net ~key:(p lsl page_bits) ~bytes:page_size;
    Clock.bump t.c_major 1;
    map_page t p ~hot:true ~dirty:write;
    (* Optional cluster readahead of subsequent swapped-out pages.
       Suppressed while the breaker is open: speculative traffic is the
       first thing a degraded kernel sheds. *)
    for k = 1 to (if Net.remote_available t.net then t.readahead else 0) do
      let q = p + k in
      let sq = get_state t q in
      if sq land bit_swapped <> 0 && sq land bit_present = 0 then begin
        Net.fetch_object_prefetched t.net ~key:(q lsl page_bits)
          ~bytes:page_size;
        Clock.bump t.c_readahead 1;
        map_page t q ~hot:false ~dirty:false
      end
    done
  end
  else begin
    (* First touch: anonymous page allocation (minor fault). *)
    Clock.tick t.clock t.cost.Cost_model.fastswap_fault_local;
    Clock.bump t.c_minor 1;
    map_page t p ~hot:true ~dirty:write
  end

let touch t p ~write =
  let s = get_state t p in
  let s =
    if s land bit_present <> 0 then s
    else begin
      fault_page t p ~write;
      get_state t p
    end
  in
  let s' = s lor bit_hot lor if write then bit_dirty else 0 in
  if s' <> s then set_state t p s'

let access t ~addr ~size ~write =
  let first = addr lsr page_bits in
  let last = (addr + size - 1) lsr page_bits in
  touch t first ~write;
  if last <> first then touch t last ~write
