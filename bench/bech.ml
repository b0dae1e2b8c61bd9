(* Host-side microbenchmarks (Bechamel): how fast the simulator itself
   executes its primitives. These do not reproduce paper numbers — they
   document the cost of running the reproduction. *)

open Bechamel
open Toolkit

let make_guard_bench () =
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
      ~local_budget:(Tfm_util.Units.mib 64)
  in
  let p = Trackfm.Runtime.tfm_malloc rt (Tfm_util.Units.mib 1) in
  Trackfm.Runtime.guard rt ~ptr:p ~size:8 ~write:false;
  Test.make ~name:"runtime fast-path guard"
    (Staged.stage (fun () -> Trackfm.Runtime.guard rt ~ptr:p ~size:8 ~write:false))

let make_memstore_bench () =
  let store = Memstore.create () in
  let i = ref 0 in
  Test.make ~name:"memstore 8B store+load"
    (Staged.stage (fun () ->
         i := (!i + 8) land 0xFFFFF;
         Memstore.store store ~addr:!i ~size:8 42;
         ignore (Memstore.load store ~addr:!i ~size:8)))

(* Strided over 8 MiB of the heap region (four 2 MiB directory leaves),
   one page plus 64 bytes per step, so consecutive accesses change page
   and regularly change leaf. *)
let make_memstore_heap_bench () =
  let store = Memstore.create () in
  let i = ref 0 in
  Test.make ~name:"memstore heap strided store+load"
    (Staged.stage (fun () ->
         i := (!i + Memstore.page_size + 64) land 0x7FFFFF;
         let addr = Backend.heap_base + !i in
         Memstore.store store ~addr ~size:8 42;
         ignore (Memstore.load store ~addr ~size:8)))

(* Alternates between the stack (1 GiB) and the heap (16 TiB), which lie
   in different 1 GiB directory segments, on every access. *)
let make_memstore_regions_bench () =
  let store = Memstore.create () in
  let stack_base = 1 lsl 30 in
  let i = ref 0 in
  Test.make ~name:"memstore stack/heap alternating"
    (Staged.stage (fun () ->
         i := (!i + 8) land 0xFFFF;
         let base = if !i land 8 = 0 then stack_base else Backend.heap_base in
         Memstore.store store ~addr:(base + !i) ~size:8 42;
         ignore (Memstore.load store ~addr:(base + !i) ~size:8)))

(* Fastswap's per-access page-table work when the page is present: the
   cost the [fastswap] backend adds to every heap load and store. *)
let make_fastswap_hit_bench () =
  let swap =
    Fastswap.Swap.create Cost_model.default (Clock.create ())
      ~local_budget:(Tfm_util.Units.mib 1)
  in
  let i = ref 0 in
  let span = 16 * Fastswap.Swap.page_size in
  for k = 0 to 15 do
    Fastswap.Swap.access swap
      ~addr:(Backend.heap_base + (k * Fastswap.Swap.page_size))
      ~size:8 ~write:true
  done;
  Test.make ~name:"fastswap present-page access"
    (Staged.stage (fun () ->
         i := (!i + 264) mod span;
         Fastswap.Swap.access swap ~addr:(Backend.heap_base + !i) ~size:8
           ~write:(!i land 8 = 0)))

let make_interp_bench () =
  let m = Stream.build ~n:1000 ~kernel:Stream.Sum () in
  Test.make ~name:"interp 1000-element STREAM sum"
    (Staged.stage (fun () ->
         let clock = Clock.create () in
         let backend =
           Backend.local Cost_model.default clock (Memstore.create ())
         in
         ignore (Interp.run backend m ~entry:"main")))

let make_pipeline_bench () =
  Test.make ~name:"TrackFM pipeline on STREAM sum"
    (Staged.stage (fun () ->
         let m = Stream.build ~n:1000 ~kernel:Stream.Sum () in
         ignore (Trackfm.Pipeline.run Trackfm.Pipeline.default_config m)))

let run () =
  let tests =
    Test.make_grouped ~name:"simulator"
      [
        make_guard_bench ();
        make_memstore_bench ();
        make_memstore_heap_bench ();
        make_memstore_regions_bench ();
        make_fastswap_hit_bench ();
        make_interp_bench ();
        make_pipeline_bench ();
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "== Simulator host-performance (Bechamel, ns/run) ==\n";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-45s %12.1f\n" name est
      | _ -> Printf.printf "%-45s (no estimate)\n" name)
    results;
  print_newline ()
