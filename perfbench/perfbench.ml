(* perfbench: the repository benchmark.

   perfbench.exe --workload W --seed N --seconds S --trace 0|1
                 [--size full|tiny] [--program P] [--corrupt-oracle]

   Runs workload W (tfm-apps, paging-interp or compile-matrix) as a
   closed loop of passes over its cells, single-threaded, for about S
   seconds after one warm-up pass, and prints a report followed by one
   JSON line: the end-to-end metrics with --trace 0, the per-layer
   metrics with --trace 1. See README.md next to this file. *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let seconds_since t0 = float_of_int (Layers.now_ns () - t0) *. 1e-9

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : Cells.size;
  program : string option;
  corrupt : bool;
}

let usage =
  "perfbench --workload tfm-apps|paging-interp|compile-matrix --seed N \
   --seconds S --trace 0|1 [--size full|tiny] [--program P] \
   [--corrupt-oracle]"

let parse_args argv =
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let int_of name s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail (Printf.sprintf "%s expects an integer, got %S" name s)
  in
  let rec go o = function
    | "--workload" :: w :: rest ->
        if Cells.of_name w = None then fail ("unknown workload " ^ w);
        go { o with workload = w } rest
    | "--seed" :: s :: rest -> go { o with seed = int_of "--seed" s } rest
    | "--seconds" :: s :: rest ->
        let n = int_of "--seconds" s in
        if n < 1 then fail "--seconds must be at least 1";
        go { o with seconds = float_of_int n } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | "--size" :: "full" :: rest -> go { o with size = Cells.Full } rest
    | "--size" :: "tiny" :: rest -> go { o with size = Cells.Tiny } rest
    | "--program" :: p :: rest -> go { o with program = Some p } rest
    | "--corrupt-oracle" :: rest -> go { o with corrupt = true } rest
    | arg :: _ -> fail ("bad argument " ^ arg)
    | [] -> o
  in
  let o =
    go
      {
        workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        size = Cells.Full;
        program = None;
        corrupt = false;
      }
      (List.tl (Array.to_list argv))
  in
  if o.workload = "" then fail "--workload is required";
  o

(* {1 Set-up} *)

(* Inputs, trace blobs and host-oracle checksums (all made while the
   cell list is built), plus one IR build of each distinct program as an
   input-size census. *)
let setup o =
  let make = Option.get (Cells.of_name o.workload) in
  let cells =
    make ~size:o.size ~seed:o.seed
    |> List.filter (fun c ->
           match o.program with
           | None -> true
           | Some p -> String.equal (Cells.program c).Cells.pname p)
  in
  if cells = [] then begin
    prerr_endline "perfbench: no cell runs the program given to --program";
    exit 2
  end;
  let census =
    List.fold_left
      (fun acc cell ->
        let p = Cells.program cell in
        if List.mem_assoc p.Cells.pname acc then acc
        else (p.pname, Ir.module_instr_count (p.build ())) :: acc)
      [] cells
    |> List.rev
  in
  (* The smoke test's negative case: the first executing cell's oracle
     is off by one, so that cell must fail on every pass. *)
  let corrupt = ref o.corrupt in
  let off_by_one (prog : Cells.program) =
    corrupt := false;
    { prog with Cells.expected = prog.Cells.expected + 1 }
  in
  let cells =
    List.map
      (function
        | Cells.Run r when !corrupt -> Cells.Run { r with prog = off_by_one r.prog }
        | Cells.Engines e when !corrupt ->
            Cells.Engines { e with prog = off_by_one e.prog }
        | c -> c)
      cells
  in
  (Array.of_list cells, census)

(* {1 Passes} *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;
}

let tally = { attempted = 0; failed = 0; first_failures = [] }

let fail_cell name msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.first_failures < 8 then
    tally.first_failures <- (name ^ ": " ^ msg) :: tally.first_failures

(* The facts of each cell's first successful execution: every later
   execution, traced or not, with or without a recording sink, must
   reproduce them exactly. *)
let reference : Exec.facts option array ref = ref [||]

(* One cell, counted and checked against its host oracle and its
   reference; [None] when it failed. A failure never stops the pass. *)
let run_cell ?telemetry ?at_peak i cell =
  tally.attempted <- tally.attempted + 1;
  match Exec.run ?telemetry ?at_peak cell with
  | exception Exec.Wrong msg ->
      fail_cell (Cells.name cell) msg;
      None
  | exception e ->
      fail_cell (Cells.name cell) (Printexc.to_string e);
      None
  | o ->
      Layers.span Layers.Oracle (fun () ->
          match !reference.(i) with
          | None ->
              !reference.(i) <- Some o.Exec.facts;
              Some o
          | Some r when r = o.Exec.facts -> Some o
          | Some _ ->
              fail_cell (Cells.name cell)
                "simulated numbers differ from the reference execution";
              None)

type pass = { wall_s : float; outcomes : Exec.outcome option array }

let run_pass cells =
  let t0 = Layers.now_ns () in
  let outcomes = Array.mapi run_cell cells in
  { wall_s = seconds_since t0; outcomes }

(* Passes until [seconds] have gone by (at least one). *)
let measure ~seconds f =
  let t0 = Layers.now_ns () in
  let rec go acc =
    let acc = f () :: acc in
    if seconds_since t0 >= seconds then List.rev acc else go acc
  in
  go []

(* A simulated total over one pass, from the reference facts. *)
let sim_total name =
  Array.fold_left
    (fun a facts ->
      match facts with
      | Some f -> a + Option.value ~default:0 (List.assoc_opt name f)
      | None -> a)
    0 !reference

(* {1 Output} *)

let metric (name, unit, value) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_integer value && Float.abs value < 1e15 then
       Printf.sprintf "%.0f" value
     else Printf.sprintf "%.17g" value)
    unit

let print_result metrics =
  List.iter
    (fun f -> Printf.printf "FAILED %s\n" f)
    (List.rev tally.first_failures);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0) tally.attempted tally.failed
    (String.concat ", " (List.map metric metrics))

(* Set-up and the report header. Returns the cells and the set-up time.
   The caller's first pass is an untimed warm-up that sets the reference
   facts. *)
let start o =
  let t0 = Layers.now_ns () in
  let cells, census = setup o in
  let setup_s = seconds_since t0 in
  reference := Array.make (Array.length cells) None;
  Printf.printf "perfbench %s seed=%d size=%s trace=%d\n" o.workload o.seed
    (match o.size with Cells.Full -> "full" | Tiny -> "tiny")
    (if o.trace then 1 else 0);
  Printf.printf "programs (IR instructions): %s\n"
    (String.concat ", "
       (List.map (fun (p, n) -> Printf.sprintf "%s %d" p n) census));
  (cells, setup_s)

(* {1 Untraced run: end-to-end metrics} *)

let end_to_end o =
  let cells, first_setup = start o in
  (* The warm-up pass is the heap probe. Peak live heap: the live words
     after a full major GC at the end of each Engine.run (on the assembled
     backend), compile or analysis, while that cell's memory is still
     reachable. This is exact. Gc.top_heap_words is not: it depends on
     where major cycles happen to end, and a few more bytes of argv move
     it by 14%. *)
  let exec_words = ref 0 and compile_words = ref 0 in
  Array.iteri
    (fun i cell ->
      let peak =
        match cell with
        | Cells.Run _ | Engines _ -> exec_words
        | Compile _ | Analyze _ -> compile_words
      in
      let at_peak () =
        Gc.full_major ();
        peak := max !peak (Gc.stat ()).Gc.live_words
      in
      ignore (run_cell ~at_peak i cell))
    cells;
  let word_mb = float_of_int (Sys.word_size / 8) /. 1048576. in
  Printf.printf "peak live heap MiB: executing cells %.4f, compiles %.4f\n"
    (float_of_int !exec_words *. word_mb)
    (float_of_int !compile_words *. word_mb);
  (* Set-up is repeated before every measured pass and its median
     reported, so that work moved into set-up shows; spreading the
     repetitions over the run keeps one busy moment from setting it. *)
  let samples =
    measure ~seconds:o.seconds (fun () ->
        let t0 = Layers.now_ns () in
        ignore (setup o);
        let setup_s = seconds_since t0 in
        (setup_s, run_pass cells))
  in
  let setups = first_setup :: List.map fst samples in
  let passes = List.map snd samples in
  let walls = List.map (fun p -> p.wall_s) passes in
  (* Simulated instructions per host microsecond inside Engine.run. *)
  let mips p =
    let sum f =
      Array.fold_left
        (fun a o -> match o with Some o -> a + f o | None -> a)
        0 p.outcomes
    in
    float_of_int (sum (fun o -> o.Exec.instrs))
    *. 1e3
    /. float_of_int (max 1 (sum (fun o -> o.Exec.exec_ns)))
  in
  let mipss = List.map mips passes in
  let each what l =
    Printf.printf "%s (%d passes):%s\n" what (List.length l)
      (String.concat "" (List.map (Printf.sprintf " %.4f") l))
  in
  each "pass wall s" walls;
  each "pass sim_mips" mipss;
  (* The mean of the faster half of the passes. On a shared host it
     varied less between runs than the median or the fastest pass did
     (README.md). *)
  let faster_half order l =
    let sorted = List.sort order l in
    let k = max 1 (List.length l / 2) in
    List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < k) sorted)
    /. float_of_int k
  in
  print_result
    [
      ("wall_s", "s", faster_half compare walls);
      ("setup_s", "s", median setups);
      ("sim_mips", "Minstr/s", faster_half (fun a b -> compare b a) mipss);
      ("sim_cycles", "cycles", float_of_int (sim_total "cycles"));
      ( "peak_heap_mb",
        "MiB",
        float_of_int (max !exec_words !compile_words) *. word_mb );
    ]

(* {1 Traced run: per-layer metrics} *)

let span_categories =
  Telemetry.Span.[ Compute; Guard_fast; Guard_slow; Evict_stall; Queueing ]

let counters =
  [
    "tfm.fast_guards"; "tfm.slow_guards"; "tfm.locality_guards";
    "tfm.custody_skips"; "tfm.boundary_checks"; "tfm.chunk_inits";
    "tfm.mallocs"; "tfm.page_accesses"; "tfm.state_table_misses";
    "aifm.demand_fetches"; "aifm.evictions"; "aifm.evictions_deferred";
    "aifm.materialized"; "aifm.writebacks"; "net.fetches";
    "net.prefetched_fetches"; "net.bytes_in"; "net.bytes_out";
    "net.writebacks"; "fastswap.major_faults"; "fastswap.minor_faults";
    "fastswap.evictions"; "fastswap.readahead_pages"; "fastswap.writebacks";
    "fastswap.reclaim_deferred";
  ]

(* Every executing cell once more untraced, back to back with the no-op
   sink and with a span-recording sink: the host cost of recording, and
   the exact simulated cycles per span category. Both must reproduce the
   reference facts. *)
let telemetry_probe cells =
  let sinks = ref [] in
  let recording clock =
    let s = Telemetry.Sink.recording ~spans:true clock in
    sinks := s :: !sinks;
    s
  in
  let nop_ns = ref 0 and rec_ns = ref 0 in
  let exec_ns acc = Option.iter (fun o -> acc := !acc + o.Exec.exec_ns) in
  Array.iteri
    (fun i cell ->
      match cell with
      | Cells.Run _ | Engines _ ->
          exec_ns nop_ns (run_cell i cell);
          exec_ns rec_ns (run_cell ~telemetry:recording i cell)
      | Compile _ | Analyze _ -> ())
    cells;
  let cats = Array.make Telemetry.Span.ncats 0 in
  let add = Array.iteri (fun i c -> cats.(i) <- cats.(i) + c) in
  List.iter
    (fun s ->
      Option.iter
        (fun sp ->
          List.iter
            (fun (_, st) -> add st.Telemetry.Span.cat_totals)
            (Telemetry.Span.classes sp);
          add (Telemetry.Span.background sp))
        (Telemetry.Sink.spans s))
    !sinks;
  let cat c = cats.(Telemetry.Span.cat_index c) in
  (float_of_int !rec_ns /. float_of_int (max 1 !nop_ns), cat)

let per_layer o =
  let cells, _ = start o in
  ignore (run_pass cells);
  (* Untraced and traced passes alternate, so both sides of the overhead
     estimate see the same machine state. *)
  let pairs =
    measure ~seconds:o.seconds (fun () ->
        let u = run_pass cells in
        Layers.on := true;
        let t = run_pass cells in
        Layers.on := false;
        (u, t))
  in
  let overhead, cat = telemetry_probe cells in
  let n = float_of_int (List.length pairs) in
  let mean f = List.fold_left (fun a p -> a +. f p) 0. pairs /. n in
  let traced_wall = mean (fun (_, t) -> t.wall_s) in
  let untraced_wall = mean (fun (u, _) -> u.wall_s) in
  let tracing_ratio =
    median (List.map (fun (u, t) -> t.wall_s /. u.wall_s) pairs)
  in
  let per_pass layer = Layers.seconds layer /. n in
  let sum layers = List.fold_left (fun a l -> a +. per_pass l) 0. layers in
  let unattributed = traced_wall -. sum Layers.all in
  Printf.printf
    "traced pass %.3f s, untraced %.3f s: tracing overhead %+.1f%% (median \
     of %d pairs)\n"
    traced_wall untraced_wall
    (100. *. (tracing_ratio -. 1.))
    (List.length pairs);
  Printf.printf "%-24s %10s %7s\n" "layer (self time)" "s/pass" "share";
  List.map (fun l -> (Layers.name l, per_pass l)) Layers.all
  @ [ ("(unattributed)", unattributed) ]
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (name, s) ->
         Printf.printf "%-24s %10.4f %6.1f%%\n" name s
           (100. *. s /. traced_wall));
  let count name = float_of_int (sim_total name) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let guards =
    count "tfm.fast_guards" +. count "tfm.slow_guards"
    +. count "tfm.locality_guards"
  in
  let seconds =
    Layers.
      [
        ("workloads.build_s", per_pass Build);
        ("workloads.blob_load_s", per_pass Blob);
        ("driver.profile_s", per_pass Profile);
        ("driver.assemble_s", per_pass Assemble);
        ( "trackfm.pipeline_s",
          sum [ Pipeline; Init; Chunk; Summary; Guard; Elide; Route; Libc; Finish ]
        );
        ("trackfm.init_s", per_pass Init);
        ("trackfm.chunk_s", per_pass Chunk);
        ("analysis.summary_s", per_pass Summary);
        ("trackfm.guard_s", per_pass Guard);
        ("trackfm.elide_s", per_pass Elide);
        ("trackfm.route_s", per_pass Route);
        ("trackfm.libc_s", per_pass Libc);
        ("trackfm.finish_s", per_pass Finish);
        ("checker.coverage_s", per_pass Checker);
        ("analysis.shape_s", per_pass Shape);
        ("opt.o1_s", per_pass O1);
        ("interp.exec_s", sum [ Exec; Runtime; On_access; Blob ]);
        ("trackfm.runtime_s", per_pass Runtime);
        ("fastswap.on_access_s", per_pass On_access);
        ("interp.dispatch_s", per_pass Exec);
        ("bench.oracle_s", per_pass Oracle);
        ("bench.unattributed_s", unattributed);
        ("bench.traced_wall_s", traced_wall);
        ("bench.untraced_wall_s", untraced_wall);
      ]
  in
  let gc =
    List.concat_map
      (fun (label, l) ->
        [
          ("gc.minor_mwords." ^ label, "Mwords", Layers.minor_mwords l /. n);
          ( "gc.major_collections." ^ label,
            "count",
            float_of_int (Layers.major_collections l) /. n );
        ])
      Layers.
        [
          ("build", Build); ("profile", Profile); ("pipeline", Pipeline);
          ("exec", Exec); ("checker", Checker);
        ]
  in
  print_result
    (List.map (fun (name, v) -> (name, "s", v)) seconds
    @ [
        ("bench.unattributed_frac", "ratio", unattributed /. traced_wall);
        ("bench.tracing_ratio", "ratio", tracing_ratio);
        ("telemetry.overhead_frac", "ratio", overhead);
        ( "trackfm.runtime_calls",
          "count",
          float_of_int (Layers.count Layers.Runtime) /. n );
        ( "fastswap.on_access_calls",
          "count",
          float_of_int (Layers.count Layers.On_access) /. n );
        ("interp.instrs", "count", count "instrs");
      ]
    @ gc
    @ List.map
        (fun c ->
          ( "sim.cat." ^ Telemetry.Span.cat_name c,
            "cycles",
            float_of_int (cat c) ))
        span_categories
    @ List.map (fun c -> (c, "count", count c)) counters
    @ [
        ("tfm.fast_guard_ratio", "ratio", ratio (count "tfm.fast_guards") guards);
        ( "net.prefetch_ratio",
          "ratio",
          ratio (count "net.prefetched_fetches") (count "net.fetches") );
        ("pipeline.guards", "count", count "pipeline.guards");
        ("pipeline.elided", "count", count "pipeline.elided");
        ("pipeline.chunk_sites", "count", count "pipeline.chunk_sites");
        ("pipeline.routed_sites", "count", count "pipeline.routed_sites");
        ( "pipeline.code_growth",
          "ratio",
          ratio (count "pipeline.size_after") (count "pipeline.size_before") );
      ])

let () =
  let o = parse_args Sys.argv in
  if o.trace then per_layer o else end_to_end o
