(* Tests for the cluster substrate: clock, memstore, cost model, network. *)

let test_clock_tick_and_counters () =
  let c = Clock.create () in
  Clock.tick c 5;
  Clock.tick c 7;
  Alcotest.(check int) "cycles" 12 (Clock.cycles c);
  Clock.count c "x" 3;
  Clock.count c "x" 4;
  Alcotest.(check int) "counter" 7 (Clock.get c "x");
  Alcotest.(check int) "absent counter" 0 (Clock.get c "y");
  Clock.reset c;
  Alcotest.(check int) "reset cycles" 0 (Clock.cycles c);
  Alcotest.(check int) "reset counter" 0 (Clock.get c "x")

(* Interned counter handles: only a bump lists a name, [reset] zeroes in
   place, and handles, [count] and [get] all see one counter. *)
let test_clock_counter_handles () =
  let names c = List.map fst (Clock.counters c) in
  let c = Clock.create () in
  let x = Clock.counter c "x" in
  Alcotest.(check (list string)) "handle alone is not listed" [] (names c);
  Alcotest.(check int) "unbumped handle reads 0" 0 (Clock.value x);
  Clock.bump x 0;
  Alcotest.(check (list (pair string int)))
    "bump by 0 lists the name" [ ("x", 0) ] (Clock.counters c);
  Clock.bump x 5;
  Clock.count c "x" 2;
  Alcotest.(check int) "count and bump share a counter" 7 (Clock.value x);
  Alcotest.(check int) "get sees the handle's bumps" 7 (Clock.get c "x");
  Alcotest.(check bool) "a second handle is the same counter" true
    (Clock.value (Clock.counter c "x") = 7);
  Clock.count c "y" 1;
  Clock.reset c;
  Alcotest.(check (list string)) "reset unlists every name" [] (names c);
  Alcotest.(check int) "reset zeroes the handle" 0 (Clock.value x);
  Alcotest.(check int) "reset zeroes get" 0 (Clock.get c "x");
  Clock.bump x 3;
  Alcotest.(check (list (pair string int)))
    "a pre-reset handle keeps counting" [ ("x", 3) ] (Clock.counters c);
  Alcotest.(check int) "get after reset" 3 (Clock.get c "x")

let test_memstore_rw_sizes () =
  let s = Memstore.create () in
  Memstore.store s ~addr:100 ~size:1 0xAB;
  Alcotest.(check int) "byte" 0xAB (Memstore.load s ~addr:100 ~size:1);
  Memstore.store s ~addr:200 ~size:2 0xBEEF;
  Alcotest.(check int) "u16" 0xBEEF (Memstore.load s ~addr:200 ~size:2);
  Memstore.store s ~addr:300 ~size:4 0xDEADBEEF;
  Alcotest.(check int) "u32" 0xDEADBEEF (Memstore.load s ~addr:300 ~size:4);
  Memstore.store s ~addr:400 ~size:8 0x123456789AB;
  Alcotest.(check int) "u64" 0x123456789AB (Memstore.load s ~addr:400 ~size:8)

let test_memstore_zero_default () =
  let s = Memstore.create () in
  Alcotest.(check int) "untouched reads zero" 0
    (Memstore.load s ~addr:123_456_789 ~size:8)

let test_memstore_page_spanning () =
  let s = Memstore.create () in
  let addr = Memstore.page_size - 3 in
  Memstore.store s ~addr ~size:8 (0x1122334455667788 land max_int);
  Alcotest.(check int) "spanning rw"
    (0x1122334455667788 land max_int)
    (Memstore.load s ~addr ~size:8)

let test_memstore_floats () =
  let s = Memstore.create () in
  Memstore.store_float s ~addr:64 3.14159;
  Alcotest.(check (float 0.0)) "float roundtrip" 3.14159
    (Memstore.load_float s ~addr:64);
  let addr = Memstore.page_size - 4 in
  Memstore.store_float s ~addr (-2.5e300);
  Alcotest.(check (float 0.0)) "spanning float" (-2.5e300)
    (Memstore.load_float s ~addr)

let test_memstore_blit () =
  let s = Memstore.create () in
  for k = 0 to 15 do
    Memstore.store s ~addr:(1000 + k) ~size:1 (k * 3)
  done;
  Memstore.blit s ~src:1000 ~dst:5000 ~len:16;
  for k = 0 to 15 do
    Alcotest.(check int) "blit byte" (k * 3)
      (Memstore.load s ~addr:(5000 + k) ~size:1)
  done

let prop_memstore_roundtrip =
  QCheck.Test.make ~name:"memstore store/load roundtrip" ~count:300
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 3) (int_range 0 max_int))
    (fun (addr, szi, v) ->
      let size = List.nth [ 1; 2; 4; 8 ] szi in
      let mask =
        match size with
        | 1 -> 0xFF
        | 2 -> 0xFFFF
        | 4 -> 0xFFFFFFFF
        | _ -> max_int
      in
      let s = Memstore.create () in
      Memstore.store s ~addr ~size v;
      Memstore.load s ~addr ~size = v land mask)

let test_transfer_cycles () =
  let c = Cost_model.default in
  (* 4 KiB at 25 Gb/s on a 2.4 GHz clock plus RDMA latency lands in the
     34-35 Kcycle range the paper reports for a remote page. *)
  let cycles = Cost_model.transfer_cycles c ~latency:c.rdma_latency ~bytes:4096 in
  Alcotest.(check bool) "remote page ~34Kcyc" true
    (cycles > 32_000 && cycles < 36_000)

let test_net_fetch_accounting () =
  let cost = Cost_model.default in
  let clock = Clock.create () in
  let net = Net.create cost clock Net.Rdma in
  Net.fetch net ~bytes:4096;
  Net.fetch_prefetched net ~bytes:4096;
  Net.writeback net ~bytes:4096;
  Alcotest.(check int) "bytes in" 8192 (Net.bytes_in net);
  Alcotest.(check int) "bytes out" 4096 (Net.bytes_out net);
  Alcotest.(check int) "fetches" 2 (Net.fetches net);
  Alcotest.(check int) "prefetched" 1 (Clock.get clock "net.prefetched_fetches");
  Alcotest.(check int) "writebacks" 1 (Clock.get clock "net.writebacks")

let test_prefetched_fetch_cheaper () =
  let cost = Cost_model.default in
  let demand_clock = Clock.create () in
  let net = Net.create cost demand_clock Net.Tcp in
  Net.fetch net ~bytes:4096;
  let pf_clock = Clock.create () in
  let net2 = Net.create cost pf_clock Net.Tcp in
  Net.fetch_prefetched net2 ~bytes:4096;
  Alcotest.(check bool) "prefetch hides latency" true
    (Clock.cycles pf_clock * 5 < Clock.cycles demand_clock)

let test_tcp_slower_than_rdma () =
  let cost = Cost_model.default in
  let t = Clock.create () in
  Net.fetch (Net.create cost t Net.Tcp) ~bytes:4096;
  let r = Clock.create () in
  Net.fetch (Net.create cost r Net.Rdma) ~bytes:4096;
  Alcotest.(check bool) "TCP latency above RDMA" true
    (Clock.cycles t > Clock.cycles r)

let suite =
  ( "memsim",
    [
      Alcotest.test_case "clock" `Quick test_clock_tick_and_counters;
      Alcotest.test_case "clock counter handles" `Quick
        test_clock_counter_handles;
      Alcotest.test_case "memstore sizes" `Quick test_memstore_rw_sizes;
      Alcotest.test_case "memstore zero" `Quick test_memstore_zero_default;
      Alcotest.test_case "memstore spanning" `Quick test_memstore_page_spanning;
      Alcotest.test_case "memstore floats" `Quick test_memstore_floats;
      Alcotest.test_case "memstore blit" `Quick test_memstore_blit;
      Alcotest.test_case "transfer cycles" `Quick test_transfer_cycles;
      Alcotest.test_case "net accounting" `Quick test_net_fetch_accounting;
      Alcotest.test_case "prefetch cheaper" `Quick test_prefetched_fetch_cheaper;
      Alcotest.test_case "tcp vs rdma" `Quick test_tcp_slower_than_rdma;
      QCheck_alcotest.to_alcotest prop_memstore_roundtrip;
    ] )
