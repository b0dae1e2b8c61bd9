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

(* Model-based check of the page directory under Memstore: random
   stores and loads of every width, against a byte-level [Hashtbl] model.
   Addresses cluster around the places the directory splits: the globals
   region, the stack and the heap, 2 MiB leaf edges and 1 GiB segment
   edges, with small offsets so accesses straddle pages and read back
   each other's bytes. *)
let global_base = 1 lsl 28
let stack_base = 1 lsl 30
let leaf_span = 1 lsl 21
let segment_span = 1 lsl 30

let model_anchors =
  [|
    global_base;
    global_base + leaf_span;
    stack_base;
    stack_base - leaf_span;
    stack_base + leaf_span;
    2 * segment_span;
    Backend.heap_base;
    Backend.heap_base + (leaf_span / 2);
    Backend.heap_base + leaf_span;
    Backend.heap_base + (5 * leaf_span);
    Backend.heap_base + (261 * leaf_span);
    Backend.heap_base + segment_span;
    Backend.heap_base - segment_span;
  |]

type mem_op =
  | Store of int * int * int (* addr, size, value *)
  | Load of int * int
  | Store64 of int * int64
  | Load64 of int
  | Store_float of int * float
  | Load_float of int

let gen_addr =
  QCheck.Gen.(
    map3
      (fun a page off -> model_anchors.(a) + (page * Memstore.page_size) + off)
      (int_bound (Array.length model_anchors - 1))
      (int_range (-1) 1) (int_range (-12) 12))

let gen_mem_op =
  QCheck.Gen.(
    gen_addr >>= fun addr ->
    frequency
      [
        ( 4,
          map2
            (fun size v -> Store (addr, size, v))
            (oneofl [ 1; 2; 4; 8 ]) (int_bound max_int) );
        (4, map (fun size -> Load (addr, size)) (oneofl [ 1; 2; 4; 8 ]));
        (1, map (fun v -> Store64 (addr, v)) ui64);
        (1, return (Load64 addr));
        (1, map (fun x -> Store_float (addr, x)) float);
        (1, return (Load_float addr));
      ])

let print_mem_op = function
  | Store (a, n, v) -> Printf.sprintf "store 0x%x/%d %d" a n v
  | Load (a, n) -> Printf.sprintf "load 0x%x/%d" a n
  | Store64 (a, v) -> Printf.sprintf "store64 0x%x %Ld" a v
  | Load64 a -> Printf.sprintf "load64 0x%x" a
  | Store_float (a, x) -> Printf.sprintf "store_float 0x%x %h" a x
  | Load_float a -> Printf.sprintf "load_float 0x%x" a

let prop_memstore_model =
  QCheck.Test.make ~name:"memstore matches a byte model across regions"
    ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list print_mem_op)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 120) gen_mem_op))
    (fun ops ->
      let s = Memstore.create () in
      let bytes = Hashtbl.create 64 in
      let byte a = Option.value ~default:0 (Hashtbl.find_opt bytes a) in
      let put64 a v =
        for k = 0 to 7 do
          Hashtbl.replace bytes (a + k)
            (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF)
        done
      in
      let get64 a =
        let v = ref 0L in
        for k = 7 downto 0 do
          v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (byte (a + k)))
        done;
        !v
      in
      List.for_all
        (function
          | Store (a, n, v) ->
              Memstore.store s ~addr:a ~size:n v;
              for k = 0 to n - 1 do
                Hashtbl.replace bytes (a + k) ((v lsr (8 * k)) land 0xFF)
              done;
              true
          | Load (a, n) ->
              let v = ref 0 in
              for k = n - 1 downto 0 do
                v := (!v lsl 8) lor byte (a + k)
              done;
              (* 8-byte loads keep the low 63 bits. *)
              Memstore.load s ~addr:a ~size:n = !v land max_int
          | Store64 (a, v) ->
              Memstore.store64 s ~addr:a v;
              put64 a v;
              true
          | Load64 a -> Int64.equal (Memstore.load64 s ~addr:a) (get64 a)
          | Store_float (a, x) ->
              Memstore.store_float s ~addr:a x;
              put64 a (Int64.bits_of_float x);
              true
          | Load_float a ->
              Int64.equal
                (Int64.bits_of_float (Memstore.load_float s ~addr:a))
                (get64 a))
        ops)

(* Memory grows with the regions touched, not with the address: one byte
   in each of the globals, stack and heap regions costs three pages, three
   leaves and three segment directories (513 words each) and a few words
   of bookkeeping. A flat table reaching the heap would need 2^32 slots. *)
let test_memstore_sparse_footprint () =
  let s = Memstore.create () in
  List.iter
    (fun addr -> Memstore.store s ~addr ~size:1 1)
    [ global_base; stack_base; Backend.heap_base ];
  let words = Obj.reachable_words (Obj.repr s) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words <= 9 x 513 + 64" words)
    true
    (words <= (9 * 513) + 64)

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
      Alcotest.test_case "memstore sparse footprint" `Quick
        test_memstore_sparse_footprint;
      QCheck_alcotest.to_alcotest prop_memstore_roundtrip;
      QCheck_alcotest.to_alcotest prop_memstore_model;
    ] )
