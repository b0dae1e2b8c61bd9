(* trackfm_cli: compile-and-run any bundled workload under a chosen
   far-memory system and print its statistics.

   Examples:
     dune exec bin/trackfm_cli.exe -- run -w stream-sum -s trackfm -m 25
     dune exec bin/trackfm_cli.exe -- run -w memcached -s fastswap -m 10
     dune exec bin/trackfm_cli.exe -- list *)

open Workloads
open Cmdliner

type workload = {
  wname : string;
  describe : string;
  build : unit -> Ir.modul;
  blobs : (int * Bytes.t) list;
  working_set : int;
  expected : int;
  op_classes : (int * string) list;
      (* span operation classes the program marks with !op_begin/!op_end *)
}

let workloads () =
  let stream kernel =
    let n = 200_000 in
    {
      wname = "stream-" ^ Stream.kernel_name kernel;
      describe = "STREAM " ^ Stream.kernel_name kernel ^ " kernel";
      build = (fun () -> Stream.build ~n ~kernel ());
      blobs = [];
      working_set = Stream.working_set_bytes ~n ~kernel ();
      expected = Stream.checksum ~n ~kernel ();
      op_classes = [];
    }
  in
  let kme =
    let p = Kmeans.default_params ~n:15_000 in
    {
      wname = "kmeans";
      describe = "k-means clustering (dimension-major)";
      build = (fun () -> Kmeans.build p ());
      blobs = [];
      working_set = Kmeans.working_set_bytes p;
      expected = Kmeans.checksum p;
      op_classes = Kmeans.op_classes;
    }
  in
  let hm =
    let p = Hashmap.default_params ~keys:80_000 ~lookups:100_000 in
    {
      wname = "hashmap";
      describe = "Zipfian hashmap lookups";
      build = (fun () -> Hashmap.build p ());
      blobs = [ (0, Hashmap.trace_blob p) ];
      working_set = Hashmap.working_set_bytes p;
      expected = Hashmap.checksum p;
      op_classes = Hashmap.op_classes;
    }
  in
  let mc =
    let p = Memcached.default_params ~keys:80_000 ~gets:50_000 ~skew:1.1 in
    {
      wname = "memcached";
      describe = "memcached-style KV store, Zipf 1.1";
      build = (fun () -> Memcached.build p ());
      blobs = [ (0, Memcached.trace_blob p) ];
      working_set = Memcached.working_set_bytes p;
      expected = Memcached.checksum p;
      op_classes = Memcached.op_classes;
    }
  in
  let an =
    let p = Analytics.default_params ~rows:150_000 in
    {
      wname = "analytics";
      describe = "NYC-taxi-style dataframe queries";
      build = (fun () -> Analytics.build p ());
      blobs = [];
      working_set = Analytics.working_set_bytes p;
      expected = Analytics.checksum p;
      op_classes = [];
    }
  in
  let chase =
    let nodes = 60_000 in
    {
      wname = "pointer-chase";
      describe = "permuted linked-list traversal";
      build = (fun () -> Chase.build ~nodes ());
      blobs = [];
      working_set = Chase.working_set_bytes ~nodes;
      expected = Chase.checksum ~nodes;
      op_classes = [];
    }
  in
  let ll =
    let nodes = 40_000 and tnodes = 16_000 in
    {
      wname = "llist";
      describe = "helper-hidden list+tree traversal (shape analysis)";
      build = (fun () -> Llist.build ~nodes ~tnodes ());
      blobs = [];
      working_set = Llist.working_set_bytes ~nodes ~tnodes;
      expected = Llist.checksum ~nodes ~tnodes;
      op_classes = [];
    }
  in
  let nas kernel =
    let p = { Nas.kernel; scale = 1 } in
    {
      wname = "nas-" ^ Nas.kernel_name kernel;
      describe =
        "NAS " ^ String.uppercase_ascii (Nas.kernel_name kernel) ^ " kernel";
      build = (fun () -> Nas.build p ());
      blobs = [];
      working_set = Nas.working_set_bytes p;
      expected = Nas.checksum p;
      op_classes = [];
    }
  in
  List.map stream [ Stream.Sum; Stream.Copy; Stream.Scale; Stream.Triad ]
  @ [ kme; hm; mc; an; chase; ll ]
  @ List.map nas Nas.all_kernels

let find_workload name =
  match List.find_opt (fun w -> w.wname = name) (workloads ()) with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown workload %s; try: %s" name
           (String.concat ", " (List.map (fun w -> w.wname) (workloads ()))))

let print_outcome w (o : Driver.outcome) =
  Printf.printf "checksum: %d (%s)\n" o.Driver.ret
    (if o.Driver.ret = w.expected then "correct" else "WRONG!");
  Printf.printf "cycles:   %s (%.2f ms at 2.4 GHz)\n"
    (Tfm_util.Units.cycles_to_string o.Driver.cycles)
    (float_of_int o.Driver.cycles /. 2.4e6);
  Printf.printf "instrs:   %d\n" o.Driver.instrs;
  let counters = Clock.counters o.Driver.clock in
  if counters <> [] then begin
    Printf.printf "counters:\n";
    List.iter (fun (k, v) -> Printf.printf "  %-28s %d\n" k v) counters
  end

let chunk_mode_of = function "off" -> `Off | "all" -> `All | _ -> `Gated

let route_of = function
  | "off" -> Ok `Off
  | "static" -> Ok `Static
  | "profiled" -> Ok `Profiled
  | s -> Error (Printf.sprintf "unknown route mode %s (off|static|profiled)" s)

let build_of w o1 =
  if o1 then fun () ->
    let m = w.build () in
    ignore (Tfm_opt.O1.run m);
    m
  else w.build

(* One workload execution under a named system, returning the outcome and
   (for trackfm) the compile report. The telemetry factory is applied to
   the run's fresh clock inside the driver. [faults] is the injector for
   this run (fresh per run: its random stream is stateful). *)
let exec_system ?(engine = Engine.Interp) ?(route = `Off)
    ?(route_hotspots = []) ?(shapes = true) ?shadow w system ~budget
    ~object_size ~chunk_mode ~prefetch ~summaries ~faults ~replicas ~ack
    ~telemetry build =
  match system with
  | "local" ->
      Ok (Driver.run_local ~engine ~blobs:w.blobs ~telemetry build, None)
  | "fastswap" ->
      Ok
        ( Driver.run_fastswap ~engine ~blobs:w.blobs ~faults ~replicas ~ack
            ~telemetry ~local_budget:budget build,
          None )
  | "trackfm" ->
      let opts =
        {
          (Driver.tfm_defaults ~local_budget:budget) with
          Driver.object_size;
          chunk_mode;
          prefetch;
          use_summaries = summaries;
          use_shapes = shapes;
          route;
          route_hotspots;
          faults;
          replicas;
          ack;
        }
      in
      let o, report =
        Driver.run_trackfm ~engine ~blobs:w.blobs ~telemetry ?shadow build
          opts
      in
      Ok (o, Some report)
  | other ->
      Error (Printf.sprintf "unknown system %s (local|trackfm|fastswap)" other)

(* Profiled routing's evidence: a fault-free pre-run with routing off and
   a recording sink; every hotspot whose slow-path guards outnumber its
   fast-path hits is handed to the route pass as upgrade evidence. The
   pre-run uses the same deterministic build, so (function, call id) keys
   line up with the profiled run's guards. *)
let profiled_hotspots ~engine w ~budget ~object_size ~chunk_mode ~prefetch
    ~summaries build =
  let sink = ref Telemetry.Sink.nop in
  let telemetry clock =
    let s =
      Telemetry.Sink.recording ~trace:false ~series_interval:0 clock
    in
    sink := s;
    s
  in
  match
    exec_system ~engine w "trackfm" ~budget ~object_size ~chunk_mode ~prefetch
      ~summaries ~faults:Faults.disabled ~replicas:1 ~ack:1 ~telemetry build
  with
  | Error _ | (exception _) -> []
  | Ok _ -> (
      match Telemetry.Sink.recorder !sink with
      | None -> []
      | Some r ->
          List.filter_map
            (fun ((k : Telemetry.Site.key), (s : Telemetry.Site.stat)) ->
              if k.Telemetry.Site.instr >= 0 && s.Telemetry.Site.slow > s.Telemetry.Site.fast
              then Some (k.Telemetry.Site.func, k.Telemetry.Site.instr)
              else None)
            (Telemetry.Site.rows r.Telemetry.Sink.sites)
          |> List.sort compare)

let print_compile_report = function
  | None -> ()
  | Some report ->
      let e = report.Trackfm.Pipeline.elision in
      Printf.printf
        "compile: %d guards (%d elided, %d hoisted, %d upgraded), %d chunk \
         sites, growth %.2fx, %.1f ms\n"
        (report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_loads
        + report.Trackfm.Pipeline.guards.Trackfm.Guard_pass.guarded_stores)
        (Trackfm.Elide_pass.total_elided e)
        e.Trackfm.Elide_pass.hoisted e.Trackfm.Elide_pass.upgraded
        report.Trackfm.Pipeline.chunks.Trackfm.Chunk_pass.chunk_sites
        (Trackfm.Pipeline.code_growth report)
        (report.Trackfm.Pipeline.compile_time_s *. 1e3);
      let r = report.Trackfm.Pipeline.routing in
      if r.Trackfm.Route_pass.routed > 0 || r.Trackfm.Route_pass.kept_pinned > 0
         || r.Trackfm.Route_pass.kept_covered > 0
      then
        Printf.printf
          "routing: %d site(s) moved to the page path (%d profile-upgraded; \
           chasing sites kept: %d pinned, %d covered elsewhere)\n"
          r.Trackfm.Route_pass.routed r.Trackfm.Route_pass.upgraded
          r.Trackfm.Route_pass.kept_pinned r.Trackfm.Route_pass.kept_covered;
      print_newline ()

(* -- fault plumbing -- *)

(* A deterministic record of one run: inputs (workload, system, fault
   spec, seed) and outputs (checksum, cycles, instrs, every clock
   counter, sorted by name). The CI fault matrix diffs this file against
   checked-in goldens — any nondeterminism or counter drift shows up as a
   byte difference. *)
let write_counters_json file ~workload ~system ~fault_cfg ~fault_seed ~replicas
    ~ack (o : Driver.outcome) =
  let open Telemetry.Json in
  let counters =
    List.sort
      (fun (a, _) (b, _) -> compare (a : string) b)
      (Clock.counters o.Driver.clock)
  in
  let j =
    Obj
      [
        ("workload", String workload);
        ("system", String system);
        ("faults", String (Faults.to_string fault_cfg));
        ("fault_seed", Int fault_seed);
        ("replicas", Int replicas);
        ("ack", Int ack);
        ("checksum", Int o.Driver.ret);
        ("cycles", Int o.Driver.cycles);
        ("instrs", Int o.Driver.instrs);
        ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) counters));
      ]
  in
  let oc = open_out file in
  to_channel oc j;
  output_char oc '\n';
  close_out oc

(* -- telemetry plumbing -- *)

(* The drivers create their clocks internally, so the sink is captured
   from inside the factory for post-run reporting. [flight] arms the
   flight recorder at sink creation so triggers fired mid-run (the first
   retry, a breaker opening, a node crash) dump immediately. *)
let capture_sink ~want_trace ~sample_interval ?(spans = false)
    ?(op_classes = []) ?flight () =
  let sink = ref Telemetry.Sink.nop in
  let factory clock =
    let s =
      Telemetry.Sink.recording ~trace:want_trace
        ~series_interval:sample_interval ~spans ~op_classes clock
    in
    Option.iter
      (fun (path, meta) -> Telemetry.Sink.set_flight_recorder s ~path ~meta)
      flight;
    sink := s;
    s
  in
  (sink, factory)

(* Run identity carried into attribution and flight-recorder files, so a
   dump names the configuration that produced it. *)
let run_meta ~workload ~system ~fault_cfg ~fault_seed =
  let open Telemetry.Json in
  [
    ("workload", String workload);
    ("system", String system);
    ("faults", String (Faults.to_string fault_cfg));
    ("fault_seed", Int fault_seed);
  ]

let write_trace_file file (r : Telemetry.Sink.recorder) =
  match r.Telemetry.Sink.trace with
  | None -> ()
  | Some tr ->
      let oc = open_out file in
      Telemetry.Trace.to_channel oc tr;
      close_out oc;
      Printf.printf "trace:    %s (%d events%s; open in chrome://tracing)\n"
        file (Telemetry.Trace.length tr)
        (match Telemetry.Trace.dropped tr with
        | 0 -> ""
        | d -> Printf.sprintf ", %d dropped" d)

let write_metrics_file file (r : Telemetry.Sink.recorder) =
  match r.Telemetry.Sink.series with
  | None ->
      Printf.eprintf
        "warning: --metrics %s requested but counter sampling is disabled \
         (--sample-interval <= 0); no CSV written\n"
        file
  | Some s ->
      let oc = open_out file in
      Telemetry.Series.to_channel oc s;
      close_out oc;
      Printf.printf "metrics:  %s (%d samples, every %s)\n" file
        (Telemetry.Series.length s)
        (Tfm_util.Units.cycles_to_string (Telemetry.Series.interval s))

(* Returns an exit code so an unwritable output path reads as a clean
   file error, not an uncaught exception (the run itself already
   printed). *)
let export_telemetry sink trace_file metrics_file =
  Telemetry.Sink.final_sample sink;
  match Telemetry.Sink.recorder sink with
  | None -> 0
  | Some r -> (
      try
        Option.iter (fun f -> write_trace_file f r) trace_file;
        Option.iter (fun f -> write_metrics_file f r) metrics_file;
        0
      with Sys_error msg ->
        Printf.eprintf "cannot write telemetry output: %s\n" msg;
        1)

(* The sums-to-wall-clock invariant, asserted wherever spans are
   reported or exported: a violation is a tracing bug, never silent. *)
let assert_span_invariant sink =
  match Telemetry.Sink.spans sink with
  | None -> 0
  | Some sp ->
      if Telemetry.Span.violations sp = 0 then 0
      else begin
        Printf.eprintf
          "span invariant VIOLATED (%d): %s — attribution does not sum to \
           wall clock\n"
          (Telemetry.Span.violations sp)
          (Telemetry.Span.violation_note sp);
        1
      end

let export_attribution sink file ~meta =
  match file with
  | None -> 0
  | Some f -> (
      match Telemetry.Sink.attribution_json sink ~meta with
      | None -> 0
      | Some j -> (
          try
            let oc = open_out f in
            Telemetry.Json.to_channel oc j;
            output_char oc '\n';
            close_out oc;
            Printf.printf "attribution: %s (%d epochs)\n" f
              (Telemetry.Sink.epoch_count sink);
            0
          with Sys_error msg ->
            Printf.eprintf "cannot write attribution JSON: %s\n" msg;
            1))

(* The guard-coverage checker raises before the run's sink exists (the
   pipeline runs at compile time), so an armed flight recorder gets a
   minimal dump written here instead of via a sink trigger. *)
let write_minimal_flight file ~meta ~reason ~details =
  let open Telemetry.Json in
  let j =
    Obj
      (meta
      @ [
          ("kind", String "trackfm-flight-recorder");
          ("version", Int 1);
          ("reason", String reason);
          ("at", Int 0);
          ("details", List (List.map (fun s -> String s) details));
          ("spans", List []);
          ("events", List []);
        ])
  in
  try
    let oc = open_out file in
    to_channel oc j;
    output_char oc '\n';
    close_out oc;
    Printf.printf "flight recorder: dumped to %s (%s)\n" file reason
  with Sys_error msg ->
    Printf.eprintf "cannot write flight-recorder dump: %s\n" msg

let report_flight_dump sink =
  Option.iter
    (fun p -> Printf.printf "flight recorder: dumped to %s\n" p)
    (Telemetry.Sink.flight_dumped sink)

(* [--engine] parsing shared by every executing subcommand: unknown
   names are a clean one-line error, not an exception. *)
let with_engine engine_name k =
  match Engine.of_string engine_name with
  | Some engine -> k engine
  | None ->
      Printf.eprintf "unknown engine %s (interp|compiled)\n" engine_name;
      1

(* [--object-size] and [--replicas] checked once, before any work: a bad
   value is a one-line error naming the flag, not an uncaught exception
   from Pool.create or Cluster.create deep inside the run. *)
let with_sizes ?object_size ?replicas k =
  let bad flag v need =
    Printf.eprintf "bad %s %d: %s\n" flag v need;
    1
  in
  match (object_size, replicas) with
  | Some o, _ when o < 16 || o > 65536 || o land (o - 1) <> 0 ->
      bad "--object-size" o "must be a power of two in 16..65536"
  | _, Some r when r < 1 || r > 8 -> bad "--replicas" r "must be in 1..8"
  | _ -> k ()

let run_cmd workload_name system engine_name local_pct object_size chunk
    route_name prefetch summaries shapes o1 fault_spec fault_seed replicas ack
    counters_json trace_file metrics_file sample_interval attribution_file
    flight_file =
  with_engine engine_name @@ fun engine ->
  with_sizes ~object_size ~replicas @@ fun () ->
  match
    (find_workload workload_name, Faults.parse fault_spec, route_of route_name)
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline e;
      1
  | Ok w, Ok fault_cfg, Ok route when ack >= 1 && ack <= replicas -> (
      let faults = Faults.create ~seed:fault_seed fault_cfg in
      let budget = max (16 * object_size) (w.working_set * local_pct / 100) in
      Printf.printf
        "workload %s (%s), working set %s, local budget %s (%d%%), system %s\n"
        w.wname w.describe
        (Tfm_util.Units.bytes_to_string w.working_set)
        (Tfm_util.Units.bytes_to_string budget)
        local_pct system;
      if route <> `Off then
        Printf.printf "hybrid routing %s\n"
          (Trackfm.Route_pass.mode_to_string route);
      if Faults.enabled faults then
        Printf.printf "faults %s, seed %d\n" (Faults.to_string fault_cfg)
          fault_seed;
      if replicas > 1 then
        Printf.printf "replicas %d, ack %d\n" replicas ack;
      if engine <> Engine.Interp then
        Printf.printf "engine %s\n" (Engine.to_string engine);
      print_newline ();
      let want_spans = attribution_file <> None || flight_file <> None in
      let meta = run_meta ~workload:w.wname ~system ~fault_cfg ~fault_seed in
      let sink, telemetry =
        if trace_file = None && metrics_file = None && not want_spans then
          (ref Telemetry.Sink.nop, Driver.no_telemetry)
        else
          capture_sink ~want_trace:(trace_file <> None) ~sample_interval
            ~spans:want_spans ~op_classes:w.op_classes
            ?flight:(Option.map (fun f -> (f, meta)) flight_file)
            ()
      in
      let route_hotspots =
        if route = `Profiled && system = "trackfm" then
          profiled_hotspots ~engine w ~budget ~object_size
            ~chunk_mode:(chunk_mode_of chunk) ~prefetch ~summaries
            (build_of w o1)
        else []
      in
      match
        exec_system ~engine ~route ~route_hotspots ~shapes w system ~budget
          ~object_size ~chunk_mode:(chunk_mode_of chunk) ~prefetch ~summaries
          ~faults ~replicas ~ack ~telemetry (build_of w o1)
      with
      | exception Tfm_checker.Coverage.Unsound errs ->
          Printf.eprintf "checker: UNSOUND transform (%d violation(s)):\n"
            (List.length errs);
          List.iter (fun e -> Printf.eprintf "  %s\n" e) errs;
          Option.iter
            (fun f ->
              write_minimal_flight f ~meta ~reason:"checker-unsound"
                ~details:errs)
            flight_file;
          1
      | Error e ->
          prerr_endline e;
          1
      | Ok (o, report) -> (
          print_compile_report report;
          print_outcome w o;
          match
            Option.iter
              (fun f ->
                write_counters_json f ~workload:w.wname ~system ~fault_cfg
                  ~fault_seed ~replicas ~ack o)
              counters_json
          with
          | () ->
              let rc_tel = export_telemetry !sink trace_file metrics_file in
              let rc_attr = export_attribution !sink attribution_file ~meta in
              let rc_inv =
                if want_spans then assert_span_invariant !sink else 0
              in
              report_flight_dump !sink;
              max rc_tel (max rc_attr rc_inv)
          | exception Sys_error msg ->
              Printf.eprintf "cannot write counters JSON: %s\n" msg;
              1))
  | Ok _, Ok _, Ok _ ->
      Printf.eprintf "bad replication: need 1 <= ack (%d) <= replicas (%d)\n"
        ack replicas;
      1

(* -- report: run with a recording sink, print the hotspot table -- *)

let print_hotspots ?routing (o : Driver.outcome) (r : Telemetry.Sink.recorder)
    =
  let open Telemetry in
  let rows = Site.rows r.Sink.sites in
  (* The class column comes from the route pass's classification table;
     telemetry keys a row by the protecting call, which [class_of_call]
     resolves to the adjacent access. Allocation-site rows carry no
     access class, but the shape analysis may have resolved what
     structure the allocation anchors — shown as "alloc:<kind>". "-" =
     no routing report (routing off, or a non-trackfm system) or a site
     with no private call (chunk protocol, synthetic sites). *)
  let class_of (k : Site.key) =
    match routing with
    | None -> "-"
    | Some rep -> (
        match
          Trackfm.Route_pass.class_of_call rep ~func:k.Site.func
            ~instr:k.Site.instr
        with
        | Some c -> Tfm_analysis.Access_pattern.cls_to_string c
        | None -> (
            match
              Trackfm.Route_pass.shape_of_alloc rep ~func:k.Site.func
                ~instr:k.Site.instr
            with
            | Some kind -> "alloc:" ^ kind
            | None -> "-"))
  in
  if rows = [] then
    print_endline
      "no guard activity recorded in the measured region (local system, or \
       nothing survived !bench_begin)"
  else begin
    let t =
      Tfm_util.Table.create ~title:"guard-site hotspots (measured region)"
        ~columns:
          [
            "site"; "class"; "fast"; "slow"; "locality"; "custody"; "paged";
            "bytes in"; "bytes out"; "guard cyc";
          ]
    in
    let limit = 20 in
    List.iteri
      (fun i (k, s) ->
        if i < limit then
          Tfm_util.Table.add_rowf t
            "%s | %s | %d | %d | %d | %d | %d | %s | %s | %s"
            (Site.key_to_string k) (class_of k) s.Site.fast s.Site.slow
            s.Site.locality s.Site.custody s.Site.paged
            (Tfm_util.Units.bytes_to_string s.Site.bytes_in)
            (Tfm_util.Units.bytes_to_string s.Site.bytes_out)
            (Tfm_util.Units.cycles_to_string s.Site.guard_cycles))
      rows;
    let tot = Site.totals r.Sink.sites in
    Tfm_util.Table.add_rowf t
      "TOTAL (%d sites) | | %d | %d | %d | %d | %d | %s | %s | %s"
      (List.length rows) tot.Site.fast tot.Site.slow tot.Site.locality
      tot.Site.custody tot.Site.paged
      (Tfm_util.Units.bytes_to_string tot.Site.bytes_in)
      (Tfm_util.Units.bytes_to_string tot.Site.bytes_out)
      (Tfm_util.Units.cycles_to_string tot.Site.guard_cycles);
    Tfm_util.Table.print t;
    if List.length rows > limit then
      Printf.printf "(hottest %d of %d sites shown)\n" limit
        (List.length rows);
    print_endline "attribution cross-check (site totals vs clock counters):";
    let check name site_v counter_name =
      let cv = Driver.counter o counter_name in
      Printf.printf "  %-16s sites %10d   %-20s %10d   %s\n" name site_v
        counter_name cv
        (if site_v = cv then "OK" else "MISMATCH")
    in
    check "fast guards" tot.Site.fast "tfm.fast_guards";
    check "slow guards" tot.Site.slow "tfm.slow_guards";
    check "locality guards" tot.Site.locality "tfm.locality_guards";
    check "custody skips" tot.Site.custody "tfm.custody_skips";
    if tot.Site.paged > 0 || Driver.counter o "tfm.page_accesses" > 0 then
      check "paged accesses" tot.Site.paged "tfm.page_accesses"
  end

let print_histograms (r : Telemetry.Sink.recorder) =
  let open Telemetry in
  Printf.printf "slow-guard latency:  %s\n"
    (Histogram.summary_string ~unit_name:"cyc" r.Sink.guard_cycles);
  Printf.printf "fetch size:          %s\n"
    (Histogram.summary_string ~unit_name:"B" r.Sink.fetch_bytes);
  Printf.printf "retry backoff:       %s\n"
    (Histogram.summary_string ~unit_name:"cyc" r.Sink.retry_backoff)

let print_sparklines (r : Telemetry.Sink.recorder) =
  let open Telemetry in
  match r.Sink.series with
  | None -> ()
  | Some s ->
      let names = Series.names s in
      if names <> [] && Series.length s > 1 then begin
        Printf.printf
          "\ncounter activity over the run (per-%s deltas, %d samples):\n"
          (Tfm_util.Units.cycles_to_string (Series.interval s))
          (Series.length s);
        List.iter
          (fun name ->
            let vals = List.map snd (Series.deltas s name) in
            let peak = List.fold_left max 0.0 vals in
            if peak > 0.0 then
              Printf.printf "  %-22s %s  peak %.0f\n" name
                (Tfm_util.Ascii_plot.sparkline ~width:50 vals)
                peak)
          names
      end

let report_cmd workload_name system engine_name local_pct object_size chunk
    route_name prefetch summaries o1 fault_spec fault_seed trace_file
    metrics_file sample_interval =
  with_engine engine_name @@ fun engine ->
  with_sizes ~object_size @@ fun () ->
  match
    (find_workload workload_name, Faults.parse fault_spec, route_of route_name)
  with
  | Error e, _, _ | _, Error e, _ | _, _, Error e ->
      prerr_endline e;
      1
  | Ok w, Ok fault_cfg, Ok route -> (
      let faults = Faults.create ~seed:fault_seed fault_cfg in
      let budget = max (16 * object_size) (w.working_set * local_pct / 100) in
      Printf.printf "telemetry report: %s under %s, local budget %s (%d%%)%s%s\n\n"
        w.wname system
        (Tfm_util.Units.bytes_to_string budget)
        local_pct
        (if Faults.enabled faults then
           Printf.sprintf ", faults %s seed %d" (Faults.to_string fault_cfg)
             fault_seed
         else "")
        (if route <> `Off then
           ", routing " ^ Trackfm.Route_pass.mode_to_string route
         else "");
      let route_hotspots =
        if route = `Profiled && system = "trackfm" then
          profiled_hotspots ~engine w ~budget ~object_size
            ~chunk_mode:(chunk_mode_of chunk) ~prefetch ~summaries
            (build_of w o1)
        else []
      in
      let sink, telemetry =
        capture_sink ~want_trace:(trace_file <> None) ~sample_interval ()
      in
      match
        exec_system ~engine ~route ~route_hotspots w system ~budget
          ~object_size ~chunk_mode:(chunk_mode_of chunk) ~prefetch ~summaries
          ~faults ~replicas:1 ~ack:1 ~telemetry (build_of w o1)
      with
      | Error e ->
          prerr_endline e;
          1
      | Ok (o, report) ->
          Telemetry.Sink.final_sample !sink;
          print_compile_report report;
          print_outcome w o;
          print_newline ();
          (match Telemetry.Sink.recorder !sink with
          | None -> () (* unreachable: capture_sink always records *)
          | Some r ->
              print_hotspots
                ?routing:
                  (Option.map
                     (fun rep -> rep.Trackfm.Pipeline.routing)
                     report)
                o r;
              print_newline ();
              print_histograms r;
              print_sparklines r);
          export_telemetry !sink trace_file metrics_file)

(* -- report critical-path / report slo: span-attribution views -- *)

let cyc = Tfm_util.Units.cycles_to_string

(* Both views print from one normalized row shape, filled either from a
   live span tracker or from an attribution JSON read back with --from.
   [cq] takes a percentile in (0, 100). *)
type cp_class = {
  cname : string;
  cops : int;
  cwall_total : int;
  cwall_mean : float;
  cq : float -> int option;
  cwall_max : int;
  ccats : (string * int) list;
  cslowest : (int * int * (string * int) list) option; (* id, wall, cats *)
}

let cp_of_span sp =
  let open Telemetry in
  let cats_of arr =
    List.map (fun c -> (Span.cat_name c, arr.(Span.cat_index c))) Span.categories
  in
  let rows =
    List.map
      (fun (cls, st) ->
        let h = st.Span.wall_hist in
        {
          cname = Span.class_name sp cls;
          cops = st.Span.ops;
          cwall_total = Histogram.total h;
          cwall_mean = Histogram.mean h;
          cq = (fun p -> Histogram.percentile_opt h p);
          cwall_max = Histogram.max_value h;
          ccats = cats_of st.Span.cat_totals;
          cslowest =
            Option.map
              (fun (r : Span.record) ->
                (r.Span.id, r.Span.wall, cats_of r.Span.cats))
              st.Span.slowest;
        })
      (Span.classes sp)
  in
  ( rows,
    cats_of (Span.background sp),
    Span.violations sp,
    Span.violation_note sp )

let cp_of_json j =
  let module J = Telemetry.Json in
  let int_of v =
    match v with
    | Some (J.Int n) -> n
    | Some (J.Float f) -> int_of_float f
    | _ -> 0
  in
  let float_of v =
    match v with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> 0.0
  in
  let cats_of v =
    match v with
    | Some (J.Obj kvs) ->
        List.filter_map
          (fun (k, x) -> match x with J.Int n -> Some (k, n) | _ -> None)
          kvs
    | _ -> []
  in
  let classes = match J.member "classes" j with Some (J.List l) -> l | _ -> [] in
  let rows =
    List.map
      (fun c ->
        let wmem k = Option.bind (J.member "wall" c) (J.member k) in
        {
          cname =
            (match J.member "name" c with Some (J.String s) -> s | _ -> "?");
          cops = int_of (J.member "ops" c);
          cwall_total = int_of (wmem "total");
          cwall_mean = float_of (wmem "mean");
          cq =
            (fun p ->
              (* wall_json keys its percentiles the way the SLO grammar
                 spells them (p50 ... p999), so reuse that rendering. *)
              match wmem (Telemetry.Slo.metric_name (Telemetry.Slo.P p)) with
              | Some (J.Int n) -> Some n
              | _ -> None);
          cwall_max = int_of (wmem "max");
          ccats = cats_of (J.member "cycles" c);
          cslowest =
            (match J.member "slowest" c with
            | Some (J.Obj _ as s) ->
                Some
                  ( int_of (J.member "id" s),
                    int_of (J.member "wall" s),
                    cats_of (J.member "cycles" s) )
            | _ -> None);
        })
      classes
  in
  let inv = J.member "invariant" j in
  ( rows,
    cats_of (J.member "background" j),
    int_of (Option.bind inv (J.member "violations")),
    match Option.bind inv (J.member "note") with
    | Some (J.String s) -> s
    | _ -> "" )

let print_critical_path ~title rows ~background ~violations ~note =
  if rows = [] then begin
    print_endline
      "no operation spans recorded (the workload marks no operations with \
       !op_begin, or the measured region ran none)";
    0
  end
  else begin
    let pct part whole =
      if whole = 0 then 0.0
      else 100.0 *. float_of_int part /. float_of_int whole
    in
    let lat =
      Tfm_util.Table.create ~title:(title ^ ": per-class latency (cycles)")
        ~columns:
          [ "class"; "ops"; "mean"; "p50"; "p90"; "p99"; "p999"; "max" ]
    in
    List.iter
      (fun c ->
        let q p = match c.cq p with Some v -> cyc v | None -> "-" in
        Tfm_util.Table.add_rowf lat "%s | %d | %.0f | %s | %s | %s | %s | %s"
          c.cname c.cops c.cwall_mean (q 50.0) (q 90.0) (q 99.0) (q 99.9)
          (cyc c.cwall_max))
      rows;
    Tfm_util.Table.print lat;
    print_newline ();
    let br =
      Tfm_util.Table.create
        ~title:"critical-path decomposition (share of wall cycles)"
        ~columns:("class" :: "wall" :: Telemetry.Span.cat_names)
    in
    List.iter
      (fun c ->
        let cells =
          List.map
            (fun n ->
              let v = try List.assoc n c.ccats with Not_found -> 0 in
              Printf.sprintf "%.1f%%" (pct v c.cwall_total))
            Telemetry.Span.cat_names
        in
        Tfm_util.Table.add_rowf br "%s | %s | %s" c.cname (cyc c.cwall_total)
          (String.concat " | " cells))
      rows;
    Tfm_util.Table.print br;
    let nonzero cats =
      String.concat ", "
        (List.filter_map
           (fun (n, v) ->
             if v > 0 then Some (Printf.sprintf "%s %s" n (cyc v)) else None)
           cats)
    in
    List.iter
      (fun c ->
        match c.cslowest with
        | None -> ()
        | Some (id, wall, cats) ->
            Printf.printf "slowest %-10s op #%d: %s wall = %s\n" c.cname id
              (cyc wall) (nonzero cats))
      rows;
    if List.exists (fun (_, v) -> v > 0) background then
      Printf.printf "outside spans (setup/background): %s\n"
        (nonzero background);
    if violations = 0 then begin
      print_endline
        "invariant: per-span category cycles sum exactly to wall clock (0 \
         violations)";
      0
    end
    else begin
      Printf.printf "INVARIANT VIOLATED (%d): %s\n" violations note;
      1
    end
  end

(* Reading back an exported attribution file: every failure mode (absent,
   unreadable, not JSON, wrong document) is a clear error naming the
   path, exit 1 — never a backtrace. *)
let load_attribution path =
  match
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error msg -> Error msg
  with
  | Error msg ->
      Error (Printf.sprintf "cannot read attribution file %s: %s" path msg)
  | Ok contents -> (
      match Telemetry.Json.parse contents with
      | Error e ->
          Error (Printf.sprintf "attribution file %s is garbled: %s" path e)
      | Ok j -> (
          match Telemetry.Json.member "kind" j with
          | Some (Telemetry.Json.String "trackfm-attribution") -> Ok j
          | _ ->
              Error
                (Printf.sprintf
                   "attribution file %s is not a trackfm-attribution document \
                    (wrong or missing \"kind\"; was it written by run \
                    --attribution?)"
                   path)))

(* Shared live-run plumbing for the span-based report views. *)
let with_live_spans w ~system ~engine ~local_pct ~object_size ~chunk ~prefetch
    ~summaries ~o1 ~fault_cfg ~fault_seed k =
  let faults = Faults.create ~seed:fault_seed fault_cfg in
  let budget = max (16 * object_size) (w.working_set * local_pct / 100) in
  let sink, telemetry =
    capture_sink ~want_trace:false ~sample_interval:250_000 ~spans:true
      ~op_classes:w.op_classes ()
  in
  match
    exec_system ~engine w system ~budget ~object_size
      ~chunk_mode:(chunk_mode_of chunk) ~prefetch ~summaries ~faults
      ~replicas:1 ~ack:1 ~telemetry (build_of w o1)
  with
  | Error e ->
      prerr_endline e;
      1
  | Ok (o, _report) -> (
      Telemetry.Sink.final_sample !sink;
      if o.Driver.ret <> w.expected then
        Printf.eprintf "warning: checksum %d does not match expected %d\n"
          o.Driver.ret w.expected;
      match Telemetry.Sink.spans !sink with
      | None ->
          prerr_endline "internal error: span tracker missing";
          1
      | Some sp -> k sp)

let critical_path_cmd workload_opt system engine_name local_pct object_size
    chunk prefetch summaries o1 fault_spec fault_seed from_file =
  with_engine engine_name @@ fun engine ->
  with_sizes ~object_size @@ fun () ->
  match from_file with
  | Some path -> (
      match load_attribution path with
      | Error e ->
          prerr_endline e;
          1
      | Ok j ->
          let rows, background, violations, note = cp_of_json j in
          print_critical_path ~title:path rows ~background ~violations ~note)
  | None -> (
      match workload_opt with
      | None ->
          prerr_endline
            "report critical-path: pass -w WORKLOAD (live run) or --from FILE";
          1
      | Some name -> (
          match (find_workload name, Faults.parse fault_spec) with
          | Error e, _ | _, Error e ->
              prerr_endline e;
              1
          | Ok w, Ok fault_cfg ->
              Printf.printf
                "critical-path report: %s under %s, faults %s, seed %d\n\n"
                w.wname system (Faults.to_string fault_cfg) fault_seed;
              with_live_spans w ~system ~engine ~local_pct ~object_size ~chunk
                ~prefetch ~summaries ~o1 ~fault_cfg ~fault_seed (fun sp ->
                  let rows, background, violations, note = cp_of_span sp in
                  print_critical_path
                    ~title:(w.wname ^ " under " ^ system)
                    rows ~background ~violations ~note)))

let print_slo_outcomes outcomes =
  let open Telemetry in
  let t =
    Tfm_util.Table.create ~title:"SLO evaluation"
      ~columns:[ "class"; "metric"; "limit"; "actual"; "verdict" ]
  in
  List.iter
    (fun o ->
      Tfm_util.Table.add_rowf t "%s | %s | %s | %s | %s" o.Slo.o_cls
        (Slo.metric_name o.Slo.o_metric)
        (cyc o.Slo.o_limit)
        (match o.Slo.o_actual with Some v -> cyc v | None -> "-")
        (if o.Slo.o_pass then "PASS" else "FAIL"))
    outcomes;
  Tfm_util.Table.print t;
  if Slo.all_pass outcomes then begin
    print_endline "all SLOs met";
    0
  end
  else begin
    print_endline "SLO violations present";
    1
  end

let lookup_rows rows ~cls ~metric =
  match List.find_opt (fun r -> r.cname = cls) rows with
  | None -> None
  | Some r -> (
      match metric with
      | Telemetry.Slo.P p -> r.cq p
      | Telemetry.Slo.Mean ->
          if r.cops = 0 then None
          else Some (int_of_float (r.cwall_mean +. 0.5))
      | Telemetry.Slo.Max -> if r.cops = 0 then None else Some r.cwall_max)

(* The SLO rules come from exactly one of --slo SPEC (inline) or
   --slo-file FILE (one class:objectives spec per line, '#' comments);
   a file error names the offending line. *)
let load_slo_rules slo_spec slo_file =
  match (slo_spec, slo_file) with
  | None, None -> Error "report slo: pass --slo SPEC or --slo-file FILE"
  | Some _, Some _ ->
      Error "report slo: --slo and --slo-file are mutually exclusive"
  | Some spec, None -> (
      match Telemetry.Slo.parse spec with
      | Ok rules -> Ok (spec, rules)
      | Error e -> Error (Printf.sprintf "bad --slo spec: %s" e))
  | None, Some file -> (
      match
        try Ok (In_channel.with_open_bin file In_channel.input_lines)
        with Sys_error msg -> Error msg
      with
      | Error msg ->
          Error (Printf.sprintf "cannot read SLO file %s: %s" file msg)
      | Ok lines -> (
          match Telemetry.Slo.parse_lines lines with
          | Ok rules -> Ok (file, rules)
          | Error e -> Error (Printf.sprintf "bad SLO file %s: %s" file e)))

let slo_cmd workload_opt system engine_name local_pct object_size chunk
    prefetch summaries o1 fault_spec fault_seed from_file slo_spec slo_file =
  with_engine engine_name @@ fun engine ->
  with_sizes ~object_size @@ fun () ->
  match load_slo_rules slo_spec slo_file with
  | Error e ->
      prerr_endline e;
      1
  | Ok (spec_name, rules) -> (
      let evaluate rows violations note =
        let rc_slo =
          print_slo_outcomes
            (Telemetry.Slo.evaluate rules
               ~lookup:(fun ~cls metric -> lookup_rows rows ~cls ~metric))
        in
        if violations = 0 then rc_slo
        else begin
          Printf.printf "INVARIANT VIOLATED (%d): %s\n" violations note;
          1
        end
      in
      match from_file with
      | Some path -> (
          match load_attribution path with
          | Error e ->
              prerr_endline e;
              1
          | Ok j ->
              let rows, _, violations, note = cp_of_json j in
              evaluate rows violations note)
      | None -> (
          match workload_opt with
          | None ->
              prerr_endline
                "report slo: pass -w WORKLOAD (live run) or --from FILE";
              1
          | Some name -> (
              match (find_workload name, Faults.parse fault_spec) with
              | Error e, _ | _, Error e ->
                  prerr_endline e;
                  1
              | Ok w, Ok fault_cfg ->
                  Printf.printf "SLO report: %s under %s, spec %s\n\n" w.wname
                    system spec_name;
                  with_live_spans w ~system ~engine ~local_pct ~object_size
                    ~chunk ~prefetch ~summaries ~o1 ~fault_cfg ~fault_seed
                    (fun sp ->
                      let rows, _, violations, note = cp_of_span sp in
                      evaluate rows violations note))))

(* -- serve: the overload-robust multi-tenant serving scenario -- *)

let print_serving_result (r : Serving.result) =
  let p = r.Serving.rp in
  Printf.printf
    "backend %s, offered %.1f req/Mcyc, %d arrivals, %d connections\n"
    (Serving.backend_name p.Serving.backend)
    p.Serving.rate p.Serving.requests p.Serving.connections;
  let c = p.Serving.controls in
  Printf.printf
    "controls: admission %s, shedding %s, degradation %s (queue cap %d, \
     deadline %s)\n"
    (if c.Serving.admission then "on" else "off")
    (if c.Serving.shedding then "on" else "off")
    (if c.Serving.degradation then "on" else "off")
    c.Serving.queue_cap (cyc c.Serving.deadline);
  if Faults.enabled (Faults.create ~seed:p.Serving.fault_seed p.Serving.faults)
  then
    Printf.printf "faults %s, seed %d\n"
      (Faults.to_string p.Serving.faults)
      p.Serving.fault_seed;
  if p.Serving.replicas > 1 then
    Printf.printf "replicas %d, ack %d\n" p.Serving.replicas p.Serving.ack;
  print_newline ();
  let t =
    Tfm_util.Table.create ~title:"per-tenant outcomes"
      ~columns:
        [
          "tenant"; "offered"; "admitted"; "completed"; "good"; "degraded";
          "rejected"; "shed"; "throttled"; "p50"; "p99"; "p999";
        ]
  in
  let q h p =
    match Telemetry.Histogram.percentile_opt h p with
    | Some v -> cyc v
    | None -> "-"
  in
  List.iter
    (fun s ->
      Tfm_util.Table.add_rowf t
        "%s | %d | %d | %d | %d | %d | %d | %d | %d | %s | %s | %s"
        s.Serving.tenant.Serving.tn_name s.Serving.offered s.Serving.admitted
        s.Serving.completed s.Serving.good s.Serving.degraded
        s.Serving.rejected s.Serving.shed s.Serving.throttled
        (q s.Serving.latency 50.0) (q s.Serving.latency 99.0)
        (q s.Serving.latency 99.9))
    r.Serving.stats;
  Tfm_util.Table.print t;
  Printf.printf
    "\nduration %s, goodput %.2f good/Mcyc, fleet p99 %s, max queue %d\n"
    (cyc r.Serving.duration) r.Serving.goodput (q r.Serving.fleet 99.0)
    r.Serving.max_queue

let serving_meta (p : Serving.params) =
  let open Telemetry.Json in
  [
    ("scenario", String "serving");
    ("backend", String (Serving.backend_name p.Serving.backend));
    ("rate_per_mcyc", Float p.Serving.rate);
    ("faults", String (Faults.to_string p.Serving.faults));
    ("fault_seed", Int p.Serving.fault_seed);
    ("seed", Int p.Serving.seed);
  ]

let serve_cmd backend_name rate requests tenants keys skew value_size budget
    connections service_cycles readahead queue_cap deadline no_admission
    no_shedding no_degradation open_loop fault_spec fault_seed replicas ack
    seed serving_json attribution_file flight_file =
  with_sizes ~replicas @@ fun () ->
  match (Serving.backend_of_string backend_name, Faults.parse fault_spec) with
  | None, _ ->
      Printf.eprintf "unknown backend %s (trackfm|fastswap|aifm)\n"
        backend_name;
      1
  | _, Error e ->
      prerr_endline e;
      1
  | Some backend, Ok fault_cfg -> (
      let controls =
        if open_loop then Serving.open_loop
        else
          {
            Serving.admission = not no_admission;
            shedding = not no_shedding;
            degradation = not no_degradation;
            queue_cap;
            deadline;
          }
      in
      let p =
        {
          Serving.backend;
          tenants = Serving.default_tenants ~n:tenants ~keys ~budget
                    |> List.map (fun t -> { t with Serving.skew });
          rate;
          requests;
          service_cycles;
          value_size;
          connections;
          readahead;
          seed;
          controls;
          faults = fault_cfg;
          fault_seed;
          replicas;
          ack;
        }
      in
      let meta = serving_meta p in
      let want_spans = attribution_file <> None || flight_file <> None in
      match
        Serving.run ~spans:want_spans
          ?flight:(Option.map (fun f -> (f, meta)) flight_file)
          p
      with
      | exception Invalid_argument msg ->
          prerr_endline msg;
          1
      | r -> (
          print_serving_result r;
          let rc_attr = export_attribution r.Serving.sink attribution_file ~meta in
          let rc_inv =
            if want_spans then assert_span_invariant r.Serving.sink else 0
          in
          report_flight_dump r.Serving.sink;
          match
            Option.iter
              (fun f ->
                let oc = open_out f in
                Telemetry.Json.to_channel oc (Serving.result_json r);
                output_char oc '\n';
                close_out oc;
                Printf.printf "serving JSON: %s\n" f)
              serving_json
          with
          | () -> max rc_attr rc_inv
          | exception Sys_error msg ->
              Printf.eprintf "cannot write serving JSON: %s\n" msg;
              1))

(* -- validate: JSON schema check (CI validates exported traces) -- *)

let validate_cmd schema_file input_file =
  let read what path =
    match In_channel.with_open_bin path In_channel.input_all with
    | contents -> Ok contents
    | exception Sys_error msg ->
        Error (Printf.sprintf "cannot read %s %s: %s" what path msg)
  in
  let parse what path contents =
    match Telemetry.Json.parse contents with
    | Ok j -> Ok j
    | Error e -> Error (Printf.sprintf "%s %s is not valid JSON: %s" what path e)
  in
  let load what path =
    Result.bind (read what path) (parse what path)
  in
  match (load "schema" schema_file, load "input" input_file) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      1
  | Ok schema, Ok v -> (
      match Telemetry.Json.validate ~schema v with
      | Ok () ->
          Printf.printf "%s: valid against %s\n" input_file schema_file;
          0
      | Error e ->
          Printf.eprintf "%s: schema violation: %s\n" input_file e;
          1)

let sweep_cmd workload_name object_size =
  with_sizes ~object_size @@ fun () ->
  match find_workload workload_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok w ->
      Printf.printf "sweeping %s (working set %s), object size %dB\n\n"
        w.wname
        (Tfm_util.Units.bytes_to_string w.working_set)
        object_size;
      let t =
        Tfm_util.Table.create
          ~title:"slowdown vs all-local, by local memory"
          ~columns:[ "local mem %"; "TrackFM"; "Fastswap" ]
      in
      let lo = Driver.run_local ~blobs:w.blobs w.build in
      let tfm_pts = ref [] and fs_pts = ref [] in
      List.iter
        (fun pct ->
          let budget = max (16 * 4096) (w.working_set * pct / 100) in
          let opts =
            { (Driver.tfm_defaults ~local_budget:budget) with Driver.object_size }
          in
          let tfm, _ = Driver.run_trackfm ~blobs:w.blobs w.build opts in
          let fs =
            Driver.run_fastswap ~blobs:w.blobs ~local_budget:budget w.build
          in
          assert (tfm.Driver.ret = w.expected && fs.Driver.ret = w.expected);
          let sl c = float_of_int c /. float_of_int lo.Driver.cycles in
          tfm_pts := (float_of_int pct, sl tfm.Driver.cycles) :: !tfm_pts;
          fs_pts := (float_of_int pct, sl fs.Driver.cycles) :: !fs_pts;
          Tfm_util.Table.add_rowf t "%d | %.2f | %.2f" pct
            (sl tfm.Driver.cycles) (sl fs.Driver.cycles))
        [ 10; 25; 50; 75; 100 ];
      Tfm_util.Table.print t;
      Tfm_util.Ascii_plot.print ~x_label:"local mem %"
        ~title:(w.wname ^ ": slowdown vs all-local")
        [
          { Tfm_util.Ascii_plot.label = "TrackFM"; points = !tfm_pts };
          { label = "Fastswap"; points = !fs_pts };
        ];
      0

let autotune_cmd workload_name local_pct =
  match find_workload workload_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok w ->
      let budget = max 65536 (w.working_set * local_pct / 100) in
      Printf.printf
        "autotuning object size for %s at %d%% local memory (Section 3.2's \
         exhaustive recompile-and-run search)\n\n"
        w.wname local_pct;
      let best, results =
        Driver.autotune_object_size ~blobs:w.blobs w.build ~local_budget:budget
      in
      List.iter
        (fun (osz, cycles) ->
          Printf.printf "  %5dB -> %s%s\n" osz
            (Tfm_util.Units.cycles_to_string cycles)
            (if osz = best then "   <- chosen" else ""))
        results;
      0

(* Static-analysis lint: compile every workload under each chunk mode,
   with and without the guard optimizer, and run the guard-coverage
   verifier plus the elision-witness re-check over the transformed IR.
   Compile-only (no execution, no profile run), so this is fast enough
   for a CI lint stage. Exits non-zero on any violation. *)
let check_cmd workload_filter engine_name =
  with_engine engine_name @@ fun engine ->
  let selected =
    List.filter
      (fun w ->
        match workload_filter with None -> true | Some n -> w.wname = n)
      (workloads ())
  in
  if selected = [] then begin
    Printf.eprintf "no workload matches %s\n"
      (Option.value ~default:"<all>" workload_filter);
    1
  end
  else begin
    let failures = ref 0 in
    List.iter
      (fun w ->
        List.iter
          (fun (mode_name, chunk_mode) ->
            List.iter
              (fun elide ->
                List.iter
                  (fun summaries ->
                    List.iter
                      (fun route ->
                        let m = w.build () in
                        let config =
                          {
                            Trackfm.Pipeline.object_size = 4096;
                            chunk_mode;
                            profile = None;
                            cost = Cost_model.default;
                            elide;
                            summaries;
                            shapes = true;
                            route;
                            route_hotspots = [];
                            check = false (* we report instead of raising *);
                            dump_after = None;
                          }
                        in
                        let report = Trackfm.Pipeline.run config m in
                        let e = report.Trackfm.Pipeline.elision in
                        let r = report.Trackfm.Pipeline.routing in
                        let violations =
                          Tfm_checker.Coverage.check_module ~summaries m
                        in
                        let witness_errors =
                          Tfm_checker.Coverage.check_witnesses m
                            e.Trackfm.Elide_pass.elisions
                        in
                        let routing_errors =
                          Tfm_checker.Coverage.check_routing m
                            r.Trackfm.Route_pass.routes
                        in
                        let ok =
                          violations = [] && witness_errors = []
                          && routing_errors = []
                        in
                        Printf.printf
                          "%-14s chunk=%-5s elide=%-3s summ=%-3s route=%-6s \
                           guards=%5d elided=%4d (same %d congruent %d range \
                           %d) hoisted=%d upgraded=%d widened=%d routed=%d  \
                           %s\n"
                          w.wname mode_name
                          (if elide then "on" else "off")
                          (if summaries then "on" else "off")
                          (Trackfm.Route_pass.mode_to_string route)
                          (report.Trackfm.Pipeline.guards
                             .Trackfm.Guard_pass.guarded_loads
                          + report.Trackfm.Pipeline.guards
                              .Trackfm.Guard_pass.guarded_stores)
                          (Trackfm.Elide_pass.total_elided e)
                          e.Trackfm.Elide_pass.elided_same
                          e.Trackfm.Elide_pass.elided_congruent
                          e.Trackfm.Elide_pass.elided_range
                          e.Trackfm.Elide_pass.hoisted
                          e.Trackfm.Elide_pass.upgraded
                          e.Trackfm.Elide_pass.widened
                          r.Trackfm.Route_pass.routed
                          (if ok then "OK" else "UNSOUND");
                        if not ok then begin
                          incr failures;
                          List.iter
                            (fun v ->
                              Printf.printf "    violation: %s\n"
                                (Tfm_checker.Coverage.violation_to_string v))
                            violations;
                          List.iter
                            (fun msg -> Printf.printf "    witness: %s\n" msg)
                            witness_errors;
                          List.iter
                            (fun msg -> Printf.printf "    routing: %s\n" msg)
                            routing_errors
                        end)
                      [ `Off; `Static ])
                  [ true; false ])
              [ true; false ])
          [ ("off", `Off); ("gated", `Gated) ])
      selected;
    (* With --engine compiled, also run each workload's raw module under
       both engines and require identical results: the static lint plus
       a runtime differential against the interpreter oracle. *)
    if engine = Engine.Compiled then begin
      print_newline ();
      List.iter
        (fun w ->
          let run engine =
            let o = Driver.run_local ~engine ~blobs:w.blobs w.build in
            ( o.Driver.ret,
              o.Driver.cycles,
              o.Driver.instrs,
              List.sort compare (Clock.counters o.Driver.clock) )
          in
          let oracle = run Engine.Interp and compiled = run Engine.Compiled in
          let ok = oracle = compiled in
          Printf.printf "%-14s engine-diff %s\n" w.wname
            (if ok then "OK" else "DIVERGED");
          if not ok then incr failures)
        selected
    end;
    if !failures > 0 then begin
      Printf.printf "\n%d unsound configuration(s)\n" !failures;
      1
    end
    else 0
  end

(* Print the interprocedural view of one workload's raw module: the call
   graph (bottom-up SCCs, recursion marked), every function's computed
   summary, and the summary-coverage lint naming functions stuck at
   bottom. With --ir, also dump the IR with call sites annotated by
   their callee's summary. Deterministic output: CI diffs two runs. *)
let summaries_cmd workload_name o1 show_ir =
  match find_workload workload_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok w ->
      let m = (build_of w o1) () in
      let env = Tfm_analysis.Summary.compute m in
      print_string (Tfm_analysis.Summary.to_string m env);
      (match Tfm_analysis.Summary.lint m env with
      | [] -> print_endline "summary-coverage: all functions summarized"
      | stuck ->
          Printf.printf "summary-coverage: %d function(s) at bottom\n"
            (List.length stuck);
          List.iter (fun line -> Printf.printf "  %s\n" line) stuck);
      if show_ir then begin
        print_newline ();
        print_string
          (Printer.module_to_string_annotated
             (Tfm_analysis.Summary.annotate env)
             m)
      end;
      0

(* Static access-pattern classification dump: the evidence the hybrid
   route pass acts on, printed per function in deterministic order
   (function order, then ascending instruction id), plus the routing
   decisions a static-mode compile makes on the transformed module. CI
   byte-compares two runs of this output. *)
let classify_cmd workload_name o1 json =
  match find_workload workload_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok w ->
      let m = (build_of w o1) () in
      let env = Tfm_analysis.Summary.compute m in
      let shapes = Tfm_analysis.Shape.analyze m in
      let per_fun =
        List.map
          (fun f ->
            ( f.Ir.fname,
              Tfm_analysis.Access_pattern.analyze ~summaries:env ~shapes f ))
          m.Ir.funcs
      in
      let config =
        {
          Trackfm.Pipeline.default_config with
          Trackfm.Pipeline.route = `Static;
        }
      in
      let report = Trackfm.Pipeline.run config ((build_of w o1) ()) in
      let r = report.Trackfm.Pipeline.routing in
      if json then begin
        (* Machine-readable variant: field order is fixed by
           construction, so two runs are byte-identical and CI can both
           diff and schema-validate the output. *)
        let open Telemetry.Json in
        let site_json (s : Tfm_analysis.Access_pattern.site) =
          Obj
            [
              ("instr", Int s.Tfm_analysis.Access_pattern.instr_id);
              ("block", String s.Tfm_analysis.Access_pattern.block);
              ( "kind",
                String
                  (if s.Tfm_analysis.Access_pattern.is_store then "store"
                   else "load") );
              ("size", Int s.Tfm_analysis.Access_pattern.size);
              ( "class",
                String
                  (Tfm_analysis.Access_pattern.cls_to_string
                     s.Tfm_analysis.Access_pattern.cls) );
              ( "stride",
                match s.Tfm_analysis.Access_pattern.stride with
                | Some v -> Int v
                | None -> Null );
              ("chain_depth", Int s.Tfm_analysis.Access_pattern.chain_depth);
              ( "shape",
                match s.Tfm_analysis.Access_pattern.shape with
                | Some k -> String k
                | None -> Null );
              ("density", Float s.Tfm_analysis.Access_pattern.density);
              ("rationale", String s.Tfm_analysis.Access_pattern.rationale);
            ]
        in
        let j =
          Obj
            [
              ("workload", String w.wname);
              ( "functions",
                List
                  (List.map
                     (fun (fname, t) ->
                       Obj
                         [
                           ("name", String fname);
                           ( "sites",
                             List
                               (List.map site_json
                                  (Tfm_analysis.Access_pattern.sites t)) );
                         ])
                     per_fun) );
              ( "routing",
                Obj
                  [
                    ("routed", Int r.Trackfm.Route_pass.routed);
                    ("kept_pinned", Int r.Trackfm.Route_pass.kept_pinned);
                    ("kept_covered", Int r.Trackfm.Route_pass.kept_covered);
                    ("upgraded", Int r.Trackfm.Route_pass.upgraded);
                    ( "routes",
                      List
                        (List.map
                           (fun (fname, (rt : Tfm_checker.Coverage.routing)) ->
                             Obj
                               [
                                 ("func", String fname);
                                 ( "access",
                                   Int rt.Tfm_checker.Coverage.routed_access );
                                 ("page_call", Int rt.Tfm_checker.Coverage.page_call);
                                 ("class", String rt.Tfm_checker.Coverage.cls);
                               ])
                           r.Trackfm.Route_pass.routes) );
                  ] );
            ]
        in
        print_endline (to_string j)
      end
      else begin
        List.iter
          (fun (_, t) -> print_string (Tfm_analysis.Access_pattern.dump t))
          per_fun;
        print_newline ();
        Printf.printf
          "hybrid routing (static): %d routed, %d kept pinned, %d kept covered\n"
          r.Trackfm.Route_pass.routed r.Trackfm.Route_pass.kept_pinned
          r.Trackfm.Route_pass.kept_covered;
        List.iter
          (fun (fname, (rt : Tfm_checker.Coverage.routing)) ->
            Printf.printf "  %s: %%%d -> page call %%%d [%s]\n" fname
              rt.Tfm_checker.Coverage.routed_access
              rt.Tfm_checker.Coverage.page_call rt.Tfm_checker.Coverage.cls)
          r.Trackfm.Route_pass.routes
      end;
      0

(* Shape-analysis dump (deterministic: CI byte-compares two runs), and
   — with [--shadow] — the dynamic audit: execute the statically routed
   program under the interpreter with the per-site depth recorder and
   cross-check every static class against the observed dependent-load
   depths. A lying shape summary that misroutes a site shows up here as
   a MISMATCH even though the structural checker (which never consults
   shape facts) accepts the module. *)
let shape_cmd workload_name o1 shadow_mode local_pct =
  match find_workload workload_name with
  | Error e ->
      prerr_endline e;
      1
  | Ok w ->
      let m = (build_of w o1) () in
      print_string (Tfm_analysis.Shape.dump (Tfm_analysis.Shape.analyze m) m);
      if not shadow_mode then 0
      else begin
        let sh = Shadow.create () in
        let budget = max (16 * 4096) (w.working_set * local_pct / 100) in
        let opts =
          {
            (Driver.tfm_defaults ~local_budget:budget) with
            Driver.route = `Static;
          }
        in
        let o, report =
          Driver.run_trackfm ~blobs:w.blobs ~shadow:sh (build_of w o1) opts
        in
        print_newline ();
        print_string (Shadow.dump sh);
        let classes =
          report.Trackfm.Pipeline.routing.Trackfm.Route_pass.classes
        in
        let checked = ref 0 and confirmed = ref 0 and unchecked = ref 0 in
        let mismatches = ref [] in
        List.iter
          (fun (fname, (s : Tfm_analysis.Access_pattern.site)) ->
            incr checked;
            match
              Shadow.check sh ~func:fname
                ~instr:s.Tfm_analysis.Access_pattern.instr_id
                ~cls:
                  (Tfm_analysis.Access_pattern.cls_to_string
                     s.Tfm_analysis.Access_pattern.cls)
            with
            | Shadow.Confirmed -> incr confirmed
            | Shadow.Unchecked -> incr unchecked
            | Shadow.Mismatch msg ->
                mismatches :=
                  Printf.sprintf "%s:%%%d %s" fname
                    s.Tfm_analysis.Access_pattern.instr_id msg
                  :: !mismatches)
          classes;
        print_newline ();
        if o.Driver.ret <> w.expected then begin
          Printf.printf
            "checksum MISMATCH: got %d, expected %d\nshape-shadow FAIL\n"
            o.Driver.ret w.expected;
          1
        end
        else begin
          Printf.printf
            "shadow validation: %d site(s) checked, %d confirmed, %d \
             unchecked, %d mismatch(es)\n"
            !checked !confirmed !unchecked
            (List.length !mismatches);
          List.iter
            (fun l -> Printf.printf "  MISMATCH %s\n" l)
            (List.rev !mismatches);
          if !mismatches = [] then begin
            print_endline "shape-shadow PASS";
            0
          end
          else begin
            print_endline "shape-shadow FAIL";
            1
          end
        end
      end

let list_cmd () =
  List.iter
    (fun w ->
      Printf.printf "%-14s %-45s %s\n" w.wname w.describe
        (Tfm_util.Units.bytes_to_string w.working_set))
    (workloads ());
  0

(* -- cmdliner wiring -- *)

let workload_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to run (see list).")

let system_arg =
  Arg.(
    value & opt string "trackfm"
    & info [ "s"; "system" ] ~docv:"SYSTEM"
        ~doc:"Memory system: local, trackfm or fastswap.")

let local_mem_arg =
  Arg.(
    value & opt int 25
    & info [ "m"; "local-mem" ] ~docv:"PCT"
        ~doc:"Local memory as a percentage of the working set.")

let object_size_arg =
  Arg.(
    value & opt int 4096
    & info [ "o"; "object-size" ] ~docv:"BYTES"
        ~doc:"TrackFM/AIFM object size (power of two, 16-65536).")

let chunk_arg =
  Arg.(
    value & opt string "gated"
    & info [ "c"; "chunk" ] ~docv:"MODE"
        ~doc:"Loop chunking mode: off, all, or gated (profiled cost model).")

let route_arg =
  Arg.(
    value & opt string "off"
    & info [ "route" ] ~docv:"MODE"
        ~doc:
          "Hybrid data plane (trackfm only): off, static (pointer-chasing \
           sites take the page-fault path, streaming sites keep guards), or \
           profiled (additionally upgrade mixed/unknown sites that a \
           profiling pre-run shows slow-path dominated).")

let prefetch_arg =
  Arg.(
    value & flag
    & info [ "no-prefetch" ] ~doc:"Disable compiler-directed prefetching.")

let o1_arg =
  Arg.(
    value & flag
    & info [ "o1" ] ~doc:"Run the O1 pre-optimization pipeline first.")

let no_summaries_arg =
  Arg.(
    value & flag
    & info [ "no-summaries" ]
        ~doc:
          "Disable interprocedural summaries: every call clobbers custody \
           and every call result classifies unknown (the pre-summary \
           pipeline).")

let no_shapes_arg =
  Arg.(
    value & flag
    & info [ "no-shapes" ]
        ~doc:
          "Disable the interprocedural shape analysis: helper-hidden \
           pointer chases classify unknown and static routing falls back \
           to intraprocedural evidence only.")

let faults_arg =
  Arg.(
    value & opt string "none"
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Fabric fault injection: none, light, medium, heavy, or a \
           comma-separated spec of drop=P, timeout=P, spike=P:CYC[:ALPHA], \
           outage=PERIOD:LEN.")

let fault_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed for the fault injector's random stream; a fixed seed makes \
           the whole fault schedule (and every counter) reproducible.")

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "replicas" ] ~docv:"N"
        ~doc:
          "Number of remote memory nodes (1-8). With 1 and no crash/corrupt \
           faults the single-server model is kept bit for bit.")

let ack_arg =
  Arg.(
    value & opt int 1
    & info [ "ack" ] ~docv:"K"
        ~doc:
          "Writebacks are acknowledged once $(docv) replicas hold the object \
           (1 <= K <= replicas); the remaining copies apply after a \
           replication lag.")

let engine_arg =
  Arg.(
    value & opt string "interp"
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: interp (the tree-walking reference \
           interpreter, the differential oracle) or compiled (closure-\
           compiled, same observable behaviour, ~10x faster dispatch).")

let counters_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "counters-json" ] ~docv:"FILE"
        ~doc:
          "Write a deterministic JSON record of the run (inputs, checksum, \
           cycles, all counters sorted by name) to $(docv); the CI fault \
           matrix diffs these against golden files.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace_event JSON to $(docv) (open in \
           chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write the sampled counter time-series as CSV to $(docv).")

let sample_interval_arg =
  Arg.(
    value & opt int 250_000
    & info [ "sample-interval" ] ~docv:"CYCLES"
        ~doc:"Simulated cycles between counter snapshots.")

let attribution_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "attribution" ] ~docv:"FILE"
        ~doc:
          "Enable causal span tracing and write the per-class critical-path \
           attribution summary (JSON) to $(docv); read it back with report \
           critical-path --from or report slo --from.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:
          "Arm the flight recorder: on the first fault, breaker opening, \
           node crash or checker violation, dump the recent span and event \
           rings to $(docv).")

let run_term =
  Term.(
    const
      (fun w s e m o c rt np ns nsh o1 fs fseed repl ack cj tr me si attr fl ->
        run_cmd w s e m o c rt (not np) (not ns) (not nsh) o1 fs fseed repl ack
          cj tr me si attr fl)
    $ workload_arg $ system_arg $ engine_arg $ local_mem_arg $ object_size_arg
    $ chunk_arg $ route_arg $ prefetch_arg $ no_summaries_arg $ no_shapes_arg
    $ o1_arg $ faults_arg $ fault_seed_arg $ replicas_arg $ ack_arg
    $ counters_json_arg $ trace_arg $ metrics_arg $ sample_interval_arg
    $ attribution_arg $ flight_arg)

let run_info = Cmd.info "run" ~doc:"Compile and run a workload"

let report_term =
  Term.(
    const (fun w s e m o c rt np ns o1 fs fseed tr me si ->
        report_cmd w s e m o c rt (not np) (not ns) o1 fs fseed tr me si)
    $ workload_arg $ system_arg $ engine_arg $ local_mem_arg $ object_size_arg
    $ chunk_arg $ route_arg $ prefetch_arg $ no_summaries_arg $ o1_arg
    $ faults_arg $ fault_seed_arg $ trace_arg $ metrics_arg
    $ sample_interval_arg)

let report_info =
  Cmd.info "report"
    ~doc:
      "Run a workload with telemetry and print guard-site hotspots, latency \
       histograms and counter sparklines (subcommands: critical-path, slo)"

let workload_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Workload to run live (omit when reading --from).")

let from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from" ] ~docv:"FILE"
        ~doc:
          "Read a previously exported attribution JSON (run --attribution) \
           instead of running a workload.")

let critical_path_term =
  Term.(
    const (fun w s e m o c np ns o1 fs fseed from ->
        critical_path_cmd w s e m o c (not np) (not ns) o1 fs fseed from)
    $ workload_opt_arg $ system_arg $ engine_arg $ local_mem_arg
    $ object_size_arg $ chunk_arg $ prefetch_arg $ no_summaries_arg $ o1_arg
    $ faults_arg $ fault_seed_arg $ from_arg)

let critical_path_info =
  Cmd.info "critical-path"
    ~doc:
      "Per-operation-class latency percentiles and the exact per-category \
       cycle decomposition (compute, guard paths, queueing, retry, failover, \
       eviction), live or from an attribution file"

let slo_spec_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"SPEC"
        ~doc:
          "Declarative SLOs: semicolon-separated class:objectives, each \
           objective metric<=limit (metrics pNN, mean, max; limits in \
           cycles with k/m/g suffixes), e.g. \
           'lookup:p99<=250k,p50<=40k;get:p999<=2m'.")

let slo_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo-file" ] ~docv:"FILE"
        ~doc:
          "Read the SLO rules from $(docv) instead of --slo: one \
           class:objectives spec per line, '#' starts a comment, blank \
           lines ignored; parse errors name the offending line.")

let slo_term =
  Term.(
    const (fun w s e m o c np ns o1 fs fseed from spec file ->
        slo_cmd w s e m o c (not np) (not ns) o1 fs fseed from spec file)
    $ workload_opt_arg $ system_arg $ engine_arg $ local_mem_arg
    $ object_size_arg $ chunk_arg $ prefetch_arg $ no_summaries_arg $ o1_arg
    $ faults_arg $ fault_seed_arg $ from_arg $ slo_spec_arg $ slo_file_arg)

let slo_info =
  Cmd.info "slo"
    ~doc:
      "Evaluate declarative latency SLOs against per-class span percentiles; \
       exit 1 on any violation"

let report_group =
  Cmd.group ~default:report_term report_info
    [ Cmd.v critical_path_info critical_path_term; Cmd.v slo_info slo_term ]

let schema_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "schema" ] ~docv:"FILE" ~doc:"Schema file (JSON).")

let validate_input_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"INPUT" ~doc:"JSON file to validate.")

let validate_term = Term.(const validate_cmd $ schema_arg $ validate_input_arg)

let validate_info =
  Cmd.info "validate"
    ~doc:
      "Validate a JSON file (exported trace, attribution) against a \
       checked-in structural schema"

let list_info = Cmd.info "list" ~doc:"List available workloads"

let sweep_term =
  Term.(const sweep_cmd $ workload_arg $ object_size_arg)

let sweep_info =
  Cmd.info "sweep"
    ~doc:"Sweep local memory and chart TrackFM vs Fastswap slowdowns"

let autotune_term = Term.(const autotune_cmd $ workload_arg $ local_mem_arg)

let autotune_info =
  Cmd.info "autotune" ~doc:"Pick the best TrackFM object size by search"

let check_workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Check only this workload (default: all).")

let check_term = Term.(const check_cmd $ check_workload_arg $ engine_arg)

let check_info =
  Cmd.info "check"
    ~doc:
      "Compile every workload and run the guard-coverage verifier and \
       elision-witness re-check over the transformed IR, with and without \
       interprocedural summaries (CI lint stage). With --engine compiled, \
       also run each workload under both engines and require identical \
       results and counters (runtime differential)."

let ir_arg =
  Arg.(
    value & flag
    & info [ "ir" ]
        ~doc:"Also dump the IR with call sites annotated by !summary comments.")

let summaries_term =
  Term.(const summaries_cmd $ workload_arg $ o1_arg $ ir_arg)

let summaries_info =
  Cmd.info "summaries"
    ~doc:
      "Print the call graph (SCCs marked), every function's interprocedural \
       summary, and the summary-coverage lint for a workload"

let classify_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the classification and routing decisions as JSON with a \
           fixed field order (machine-readable; CI schema-validates and \
           byte-compares it).")

let classify_term =
  Term.(const classify_cmd $ workload_arg $ o1_arg $ classify_json_arg)

let classify_info =
  Cmd.info "classify"
    ~doc:
      "Print the static access-pattern classification (streaming / \
       pointer-chase / mixed / unknown with stride, chain depth, shape, \
       density and rationale) of every may-heap access in a workload, and \
       the hybrid routing decisions a static-mode compile makes"

let shadow_arg =
  Arg.(
    value & flag
    & info [ "shadow" ]
        ~doc:
          "Also execute the statically routed workload under the \
           interpreter with the dynamic depth recorder and cross-check \
           every static class against the observed dependent-load depths \
           (exit 1 on any mismatch).")

let shape_term =
  Term.(const shape_cmd $ workload_arg $ o1_arg $ shadow_arg $ local_mem_arg)

let shape_info =
  Cmd.info "shape"
    ~doc:
      "Print the interprocedural shape analysis of a workload: per-function \
       chase summaries (return hops, per-argument traversal depths, link \
       stores) and per-allocation-site structure kinds; --shadow runs the \
       dynamic audit"

let backend_arg =
  Arg.(
    value & opt string "trackfm"
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:"Far-memory backend: trackfm, fastswap or aifm.")

let rate_arg =
  Arg.(
    value & opt float 30.0
    & info [ "rate" ] ~docv:"R"
        ~doc:
          "Offered load in requests per Mcycle across all tenants (open \
           loop: arrivals never slow down under backlog).")

let requests_arg =
  Arg.(
    value & opt int 20_000
    & info [ "requests" ] ~docv:"N" ~doc:"Arrivals to generate.")

let tenants_arg =
  Arg.(
    value & opt int 2
    & info [ "tenants" ] ~docv:"N" ~doc:"Number of equal-weight tenants.")

let keys_arg =
  Arg.(
    value & opt int 65_536
    & info [ "keys" ] ~docv:"N" ~doc:"Key-space size per tenant.")

let skew_arg =
  Arg.(
    value & opt float 0.99
    & info [ "skew" ] ~docv:"S" ~doc:"Zipf skew of key popularity.")

let value_size_arg =
  Arg.(
    value & opt int 64
    & info [ "value-size" ] ~docv:"BYTES"
        ~doc:"Bytes per value (multiple of 8, divides the 4 KiB page).")

let budget_arg =
  Arg.(
    value & opt int 65_536
    & info [ "budget" ] ~docv:"BYTES"
        ~doc:"Per-tenant local-memory budget in bytes.")

let connections_arg =
  Arg.(
    value & opt int 64
    & info [ "connections" ] ~docv:"N"
        ~doc:"Concurrent connection-handler tasks.")

let service_cycles_arg =
  Arg.(
    value & opt int 10_000
    & info [ "service-cycles" ] ~docv:"CYC"
        ~doc:"CPU cost of one request (parse, hash, respond).")

let readahead_arg =
  Arg.(
    value & opt int 2
    & info [ "readahead" ] ~docv:"PAGES"
        ~doc:"Fastswap readahead pages per fault (0 disables).")

let queue_cap_arg =
  Arg.(
    value & opt int 256
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Accept-queue bound for admission control.")

let deadline_arg =
  Arg.(
    value & opt int 500_000
    & info [ "deadline" ] ~docv:"CYC"
        ~doc:"Per-request latency deadline in cycles.")

let no_admission_arg =
  Arg.(
    value & flag
    & info [ "no-admission" ] ~doc:"Disable admission control.")

let no_shedding_arg =
  Arg.(value & flag & info [ "no-shedding" ] ~doc:"Disable load shedding.")

let no_degradation_arg =
  Arg.(
    value & flag
    & info [ "no-degradation" ]
        ~doc:"Disable graceful degradation (serve-stale, readahead shed).")

let open_loop_arg =
  Arg.(
    value & flag
    & info [ "open-loop" ]
        ~doc:
          "Disable the whole control plane (equivalent to --no-admission \
           --no-shedding --no-degradation): the hockey-stick baseline.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Traffic seed (arrival gaps, tenant and key picks); a fixed seed \
           makes the whole run byte-for-byte reproducible.")

let serving_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serving-json" ] ~docv:"FILE"
        ~doc:
          "Write the deterministic machine-readable summary (params echo, \
           per-tenant counts and percentiles, goodput, counters) to \
           $(docv); the CI serving stage diffs these against goldens.")

let serve_term =
  Term.(
    const serve_cmd $ backend_arg $ rate_arg $ requests_arg $ tenants_arg
    $ keys_arg $ skew_arg $ value_size_arg $ budget_arg $ connections_arg
    $ service_cycles_arg $ readahead_arg $ queue_cap_arg $ deadline_arg
    $ no_admission_arg $ no_shedding_arg $ no_degradation_arg $ open_loop_arg
    $ faults_arg $ fault_seed_arg $ replicas_arg $ ack_arg $ seed_arg
    $ serving_json_arg $ attribution_arg $ flight_arg)

let serve_info =
  Cmd.info "serve"
    ~doc:
      "Run the overload-robust multi-tenant serving scenario: open-loop \
       Poisson/Zipf traffic against a chosen far-memory backend, with \
       admission control, load shedding and graceful degradation"

let main =
  Cmd.group
    (Cmd.info "trackfm_cli" ~version:"1.0"
       ~doc:"TrackFM far-memory reproduction driver")
    [
      Cmd.v run_info run_term;
      Cmd.v serve_info serve_term;
      report_group;
      Cmd.v list_info Term.(const list_cmd $ const ());
      Cmd.v sweep_info sweep_term;
      Cmd.v autotune_info autotune_term;
      Cmd.v check_info check_term;
      Cmd.v summaries_info summaries_term;
      Cmd.v classify_info classify_term;
      Cmd.v shape_info shape_term;
      Cmd.v validate_info validate_term;
    ]

let () = exit (Cmd.eval' main)
