(* One run configuration for the subcommands that execute a workload
   (run, report, report critical-path, report slo): the workload
   registry, the cmdliner flags, one term that parses and validates them
   into a [t], and the one [execute] that runs a [t]. A bad flag value is
   a one-line error naming the flag, before anything is printed. *)

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
        (Printf.sprintf "bad --workload %s: try one of %s" name
           (String.concat ", " (List.map (fun w -> w.wname) (workloads ()))))

let build_of w o1 =
  if o1 then fun () ->
    let m = w.build () in
    ignore (Tfm_opt.O1.run m);
    m
  else w.build

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

let workload_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Workload to run live (omit when reading --from).")

type system = [ `Local | `Trackfm | `Fastswap ]

type t = {
  workload : workload;
  system : system;
  engine : Engine.t;
  local_pct : int;
  o1 : bool;
  fault_cfg : Faults.config;
  fault_seed : int;
  tfm : Driver.tfm_opts;
      (* [local_budget] is the budget under either far-memory system, and
         [replicas]/[ack] size Fastswap's remote tier too *)
}

let systems =
  [ ("local", `Local); ("trackfm", `Trackfm); ("fastswap", `Fastswap) ]

let system_name s = fst (List.find (fun (_, v) -> v = s) systems)
let bad flag v why = Printf.sprintf "bad %s %s: %s" flag v why

let pick flag table v =
  match List.assoc_opt v table with
  | Some x -> Ok x
  | None ->
      let names = String.concat ", " (List.map fst table) in
      Error (bad flag v ("must be one of " ^ names))

let check_int flag v r = Result.map_error (bad flag (string_of_int v)) r

let parse_engine =
  pick "--engine"
    (List.map (fun e -> (Engine.to_string e, e)) Engine.[ Interp; Compiled ])

let parse_faults spec =
  Result.map_error (bad "--faults" spec) (Faults.parse spec)

let check_replication ~replicas ~ack =
  Result.bind
    (check_int "--replicas" replicas (Cluster.check_replicas replicas))
    (fun () -> check_int "--ack" ack (Cluster.check_ack ~replicas ack))

let make workload system engine local_pct object_size chunk no_prefetch
    no_summaries o1 faults fault_seed route no_shapes replicas ack =
  let ( let* ) = Result.bind in
  let* system = pick "--system" systems system in
  let* engine = parse_engine engine in
  let* chunk_mode =
    pick "--chunk" [ ("off", `Off); ("all", `All); ("gated", `Gated) ] chunk
  in
  let* route =
    pick "--route"
      [ ("off", `Off); ("static", `Static); ("profiled", `Profiled) ]
      route
  in
  let* fault_cfg = parse_faults faults in
  let* () =
    check_int "--object-size" object_size
      (Aifm.Pool.check_object_size object_size)
  in
  let* () = check_replication ~replicas ~ack in
  match workload with
  | None -> Ok None
  | Some name ->
      let* w = find_workload name in
      let local_budget =
        max (16 * object_size) (w.working_set * local_pct / 100)
      in
      Ok
        (Some
           {
             workload = w;
             system;
             engine;
             local_pct;
             o1;
             fault_cfg;
             fault_seed;
             tfm =
               {
                 (Driver.tfm_defaults ~local_budget) with
                 Driver.object_size;
                 chunk_mode;
                 prefetch = not no_prefetch;
                 use_summaries = not no_summaries;
                 use_shapes = not no_shapes;
                 route;
                 replicas;
                 ack;
               };
           })

(* The shared flags, plus [--route], [--no-shapes] and [--replicas]/[--ack]
   for the subcommands that take them (the rest run with their defaults).
   [None] when no workload was named. *)
let term ?(route = false) ?(shapes = false) ?(replication = false) workload =
  let opt on arg default = if on then arg else Term.const default in
  Term.(
    const make $ workload $ system_arg $ engine_arg $ local_mem_arg
    $ object_size_arg $ chunk_arg $ prefetch_arg $ no_summaries_arg $ o1_arg
    $ faults_arg $ fault_seed_arg $ opt route route_arg "off"
    $ opt shapes no_shapes_arg false
    $ opt replication replicas_arg 1
    $ opt replication ack_arg 1)

(* [k] applied to the value; an error goes to stderr with exit 1. *)
let with_ok r k =
  match r with
  | Ok x -> k x
  | Error e ->
      prerr_endline e;
      1

(* The body of a subcommand over [term]: a bad flag, or no workload, is
   an error. *)
let with_config ?(usage = "pass -w WORKLOAD") cfg k =
  with_ok (Result.bind cfg (Option.to_result ~none:usage)) k

(* The run's identity, named the same way in every file it writes
   (counters JSON, attribution, flight-recorder dumps). *)
let meta c =
  let open Telemetry.Json in
  [
    ("workload", String c.workload.wname);
    ("system", String (system_name c.system));
    ("faults", String (Faults.to_string c.fault_cfg));
    ("fault_seed", Int c.fault_seed);
  ]

(* One execution of [c]. The fault injector is fresh per call (its random
   stream is stateful). Profiled routing first takes its evidence from a
   fault-free pre-run with routing off and a recording sink: every
   hotspot whose slow-path guards outnumber its fast-path hits is handed
   to the route pass as upgrade evidence. The pre-run uses the same
   deterministic build, so (function, call id) keys line up with the
   profiled run's guards. *)
let rec execute ?(telemetry = Driver.no_telemetry) c =
  let w = c.workload and engine = c.engine and tfm = c.tfm in
  let build = build_of w c.o1 in
  let faults = Faults.create ~seed:c.fault_seed c.fault_cfg in
  match c.system with
  | `Local -> (Driver.run_local ~engine ~blobs:w.blobs ~telemetry build, None)
  | `Fastswap ->
      ( Driver.run_fastswap ~engine ~blobs:w.blobs ~faults
          ~replicas:tfm.Driver.replicas ~ack:tfm.Driver.ack ~telemetry
          ~local_budget:tfm.Driver.local_budget build,
        None )
  | `Trackfm ->
      let route_hotspots =
        if tfm.Driver.route = `Profiled then profiled_hotspots c else []
      in
      let o, report =
        Driver.run_trackfm ~engine ~blobs:w.blobs ~telemetry build
          { tfm with Driver.route_hotspots; faults }
      in
      (o, Some report)

and profiled_hotspots c =
  let sink, telemetry =
    capture_sink ~want_trace:false ~sample_interval:0 ()
  in
  let pre =
    {
      c with
      fault_cfg = Faults.off;
      tfm = { c.tfm with Driver.route = `Off; replicas = 1; ack = 1 };
    }
  in
  match execute ~telemetry pre with
  | exception _ -> []
  | _ -> (
      match Telemetry.Sink.recorder !sink with
      | None -> []
      | Some r ->
          let open Telemetry.Site in
          List.filter_map
            (fun (k, s) ->
              if k.instr >= 0 && s.slow > s.fast then Some (k.func, k.instr)
              else None)
            (rows r.Telemetry.Sink.sites)
          |> List.sort compare)
