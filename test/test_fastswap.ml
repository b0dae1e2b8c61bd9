(* Tests for the kernel-paging baseline. *)

let make ?(readahead = 0) ?(local_budget = 4 * 4096) () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  (Fastswap.Swap.create ~readahead cost clock ~local_budget, clock)

let test_first_touch_minor_fault () =
  let swap, clock = make () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Alcotest.(check int) "minor fault" 1 (Clock.get clock "fastswap.minor_faults");
  Alcotest.(check int) "no major" 0 (Clock.get clock "fastswap.major_faults");
  Alcotest.(check bool) "present" true (Fastswap.Swap.is_present swap ~addr:0)

let test_present_access_free () =
  let swap, clock = make () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  let before = Clock.cycles clock in
  Fastswap.Swap.access swap ~addr:8 ~size:8 ~write:false;
  Alcotest.(check int) "no extra cycles on present page" before
    (Clock.cycles clock)

let page = Fastswap.Swap.page_size

let test_reclaim_and_major_fault () =
  let swap, clock = make ~local_budget:(2 * page) () in
  (* Dirty two pages, then touch more to force reclaim. *)
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:true;
  Fastswap.Swap.access swap ~addr:page ~size:8 ~write:true;
  Fastswap.Swap.access swap ~addr:(2 * page) ~size:8 ~write:false;
  Fastswap.Swap.access swap ~addr:(3 * page) ~size:8 ~write:false;
  Alcotest.(check bool) "budget enforced" true
    (Fastswap.Swap.present_pages swap <= 2);
  Alcotest.(check bool) "dirty eviction wrote back" true
    (Clock.get clock "fastswap.writebacks" > 0);
  (* Page 0 was swapped out dirty: next touch is a major fault. *)
  Clock.reset clock;
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Alcotest.(check int) "major fault" 1 (Clock.get clock "fastswap.major_faults");
  Alcotest.(check bool) "page transfer charged" true
    (Clock.get clock "net.bytes_in" = page)

let test_major_fault_cost_calibration () =
  (* Table 2: a remote fault costs ~34 Kcycles (plus a cheap clean-page
     reclaim to make room). *)
  let swap, clock = make ~local_budget:(2 * page) () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:true;
  Fastswap.Swap.access swap ~addr:page ~size:8 ~write:false;
  Fastswap.Swap.access swap ~addr:(2 * page) ~size:8 ~write:false;
  (* page 0 is now swapped out (written back on reclaim) *)
  Alcotest.(check bool) "page 0 out" false (Fastswap.Swap.is_present swap ~addr:0);
  Clock.reset clock;
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  let cycles = Clock.cycles clock in
  Alcotest.(check bool) "fault in 30-40Kcyc band" true
    (cycles > 30_000 && cycles < 40_000)

let test_page_spanning_access () =
  let swap, clock = make () in
  Fastswap.Swap.access swap ~addr:(page - 4) ~size:8 ~write:false;
  Alcotest.(check int) "two pages faulted" 2
    (Clock.get clock "fastswap.minor_faults")

let test_clean_page_dropped_silently () =
  let swap, clock = make ~local_budget:page () in
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Fastswap.Swap.access swap ~addr:page ~size:8 ~write:false;
  Alcotest.(check int) "no writeback for clean page" 0
    (Clock.get clock "fastswap.writebacks")

let test_readahead () =
  let swap, clock = make ~readahead:4 ~local_budget:(32 * page) () in
  (* Create swapped-out neighbours. *)
  for k = 0 to 15 do
    Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:true
  done;
  let swap2, clock2 = (swap, clock) in
  ignore swap2;
  (* force everything out by exceeding budget: touch 32 fresh pages *)
  for k = 16 to 60 do
    Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:false
  done;
  Clock.reset clock2;
  Fastswap.Swap.access swap ~addr:0 ~size:8 ~write:false;
  Alcotest.(check int) "one major" 1 (Clock.get clock "fastswap.major_faults");
  Alcotest.(check int) "readahead pulled neighbours" 4
    (Clock.get clock "fastswap.readahead_pages");
  (* Readahead pages are mapped cold, so under pressure the earliest ones
     can be reclaimed again before use (as in a real kernel); at least
     the most recent neighbours must still be present and free to touch. *)
  Alcotest.(check bool) "recent neighbour present" true
    (Fastswap.Swap.is_present swap ~addr:(4 * page));
  let c = Clock.cycles clock in
  Fastswap.Swap.access swap ~addr:(4 * page) ~size:8 ~write:false;
  Alcotest.(check int) "neighbour access free" c (Clock.cycles clock)

let prop_budget_invariant =
  QCheck.Test.make ~name:"fastswap never exceeds budget" ~count:50
    QCheck.(list_of_size (Gen.return 150) (pair (int_range 0 63) bool))
    (fun accesses ->
      let swap, _ = make ~local_budget:(8 * page) () in
      List.iter
        (fun (p, write) ->
          Fastswap.Swap.access swap ~addr:(p * page) ~size:8 ~write)
        accesses;
      Fastswap.Swap.present_pages swap <= 8)

let prop_swapped_data_refaults =
  QCheck.Test.make ~name:"major fault count matches reuse after eviction"
    ~count:30
    QCheck.(int_range 2 6)
    (fun budget_pages ->
      let swap, clock = make ~local_budget:(budget_pages * page) () in
      let n = 3 * budget_pages in
      (* Dirty n pages sequentially, then rescan: everything evicted by
         the scan must major-fault on the second pass. *)
      for k = 0 to n - 1 do
        Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:true
      done;
      Clock.reset clock;
      for k = 0 to n - 1 do
        Fastswap.Swap.access swap ~addr:(k * page) ~size:8 ~write:false
      done;
      Clock.get clock "fastswap.major_faults" >= n - budget_pages)

(* Page-table edges. The swap state lives in a sparse page directory
   whose leaves span 512 pages and whose segments span 2^18 pages (1 GiB).
   The same access pattern is replayed with its midpoint at the heap base
   (a segment edge: the pages below it belong to the previous segment),
   one leaf above it, one segment above it, and well inside one leaf. Its
   major faults read ahead across the midpoint and its reclaim gives
   second chances to pages on both sides, so every observation (presence
   of each page, present count, fastswap counters, cycles) must match the
   in-leaf run exactly. *)
let edge_trace mid =
  let swap, clock = make ~readahead:3 ~local_budget:(6 * page) () in
  let lo = mid - 8 and hi = mid + 8 in
  let at p = p * page in
  let window shift =
    List.init (hi - lo + 1) (fun k ->
        Fastswap.Swap.is_present swap ~addr:(at (lo + shift + k)))
  in
  (* The same window half a leaf, a leaf, half a segment and a segment
     away is never touched: a directory that aliased slots, leaves or
     segments would show pages there. *)
  let ghosts () =
    List.exists (List.mem true)
      (List.map window
         [ -(1 lsl 18); -(1 lsl 17); -512; -256; 256; 512; 1 lsl 17;
           1 lsl 18 ])
  in
  let observe () =
    ( window 0,
      ghosts (),
      Fastswap.Swap.present_pages swap,
      List.filter
        (fun (name, _) -> String.starts_with ~prefix:"fastswap." name)
        (Clock.counters clock),
      Clock.cycles clock )
  in
  let trace = ref [] in
  let step p ~off ~write =
    Fastswap.Swap.access swap ~addr:(at p + off) ~size:8 ~write;
    trace := observe () :: !trace
  in
  (* Dirty twelve pages across the midpoint: reclaim writes back the
     oldest. *)
  for k = 0 to 11 do
    step (mid - 6 + k) ~off:0 ~write:true
  done;
  (* Re-fault below the midpoint: readahead pulls the swapped-out pages
     after each fault, across it. *)
  for k = 0 to 3 do
    step (mid - 6 + k) ~off:16 ~write:false
  done;
  (* Straddle the midpoint, then re-touch both sides so the second-chance
     pass finds hot pages on both sides of the edge. *)
  step (mid - 1) ~off:(page - 4) ~write:false;
  for k = 0 to 5 do
    step (mid - 3 + k) ~off:8 ~write:(k mod 2 = 0)
  done;
  for k = 0 to 7 do
    step (mid + 8 - k) ~off:0 ~write:false
  done;
  List.rev !trace

let test_directory_edges () =
  let heap = Backend.heap_base / page in
  let inside = edge_trace (heap + 256) in
  let _, _, _, counters, _ = List.nth inside (List.length inside - 1) in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exercised") true
        (List.assoc_opt name counters |> Option.value ~default:0 > 0))
    [
      "fastswap.major_faults";
      "fastswap.readahead_pages";
      "fastswap.evictions";
      "fastswap.writebacks";
    ];
  let no_ghosts trace =
    List.for_all (fun (_, ghost, _, _, _) -> not ghost) trace
  in
  Alcotest.(check bool) "inside one leaf: no aliased pages" true
    (no_ghosts inside);
  List.iter
    (fun (what, mid) ->
      let trace = edge_trace mid in
      Alcotest.(check bool) (what ^ ": no aliased pages") true
        (no_ghosts trace);
      Alcotest.(check bool) (what ^ " = inside one leaf") true (trace = inside))
    [
      ("segment edge at the heap base", heap);
      ("leaf edge", heap + 512);
      ("segment edge 1 GiB above the heap base", heap + (1 lsl 18));
    ]

let suite =
  let q = QCheck_alcotest.to_alcotest in
  ( "fastswap",
    [
      Alcotest.test_case "first touch minor" `Quick test_first_touch_minor_fault;
      Alcotest.test_case "present access free" `Quick test_present_access_free;
      Alcotest.test_case "reclaim + major" `Quick test_reclaim_and_major_fault;
      Alcotest.test_case "fault cost calibration" `Quick
        test_major_fault_cost_calibration;
      Alcotest.test_case "page spanning" `Quick test_page_spanning_access;
      Alcotest.test_case "clean drop" `Quick test_clean_page_dropped_silently;
      Alcotest.test_case "readahead" `Quick test_readahead;
      Alcotest.test_case "directory edges" `Quick test_directory_edges;
      q prop_budget_invariant;
      q prop_swapped_data_refaults;
    ] )
