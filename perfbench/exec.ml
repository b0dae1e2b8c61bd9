(* Cell executors.

   The untraced executors call the public one-call entry points exactly
   as [trackfm_cli] does ([Driver.run_trackfm], [Driver.run_fastswap],
   [Driver.run_local]) and read host time only at the boundaries those
   calls expose: the build thunk and the telemetry factory. The traced
   executors assemble the same run from the public pieces instead, so
   that every layer call can be timed and the backend's closures wrapped.
   Both produce the same [facts]; the benchmark checks that they agree
   bit for bit. *)

open Cells

(* Everything deterministic a cell produces, in a fixed order: the
   determinism oracle compares these across passes, runs and engines. *)
type facts = (string * int) list

type outcome = {
  facts : facts;
  instrs : int;  (** simulated instructions, summed over executions *)
  exec_ns : int;  (** host time inside Engine.run, summed likewise *)
}

exception Wrong of string

let report_facts (r : Trackfm.Pipeline.report) =
  let g = r.Trackfm.Pipeline.guards in
  [
    ( "pipeline.guards",
      g.Trackfm.Guard_pass.guarded_loads + g.Trackfm.Guard_pass.guarded_stores );
    ("pipeline.elided", Trackfm.Elide_pass.total_elided r.elision);
    ("pipeline.chunk_sites", r.chunks.Trackfm.Chunk_pass.chunk_sites);
    ("pipeline.routed_sites", r.routing.Trackfm.Route_pass.routed);
    ("pipeline.size_before", r.lowered_size_before);
    ("pipeline.size_after", r.lowered_size_after);
  ]

let run_facts (o : Driver.outcome) =
  ("ret", o.Driver.ret) :: ("cycles", o.cycles) :: ("instrs", o.instrs)
  :: List.sort compare (Clock.counters o.clock)

let check_ret prog (o : Driver.outcome) =
  if o.Driver.ret <> prog.expected then
    raise
      (Wrong
         (Printf.sprintf "checksum %d, host oracle %d" o.Driver.ret
            prog.expected))

let tfm_opts prog ~route ~profile =
  {
    (Driver.tfm_defaults ~local_budget:(budget prog)) with
    Driver.route;
    profile_gate = profile;
  }

(* {1 Untraced} *)

(* A build thunk and telemetry factory that note when they ran: the
   factory fires after compilation and before Engine.run, so the engine's
   host time is the interval from the factory to the return of
   [Driver.run_*], less any build it makes in between. *)
let untraced_run ~telemetry prog system engine =
  let factory_at = ref 0 and build_ns = ref 0 in
  let build () =
    let t0 = Layers.now_ns () in
    let m = prog.build () in
    build_ns := !build_ns + (Layers.now_ns () - t0);
    m
  in
  let telemetry clock =
    factory_at := Layers.now_ns ();
    build_ns := 0;
    telemetry clock
  in
  let blobs = prog.blobs in
  let o, report =
    match system with
    | Trackfm { route; profile } ->
        let o, r =
          Driver.run_trackfm ~engine ~blobs ~telemetry build
            (tfm_opts prog ~route ~profile)
        in
        (o, report_facts r)
    | Fastswap ->
        ( Driver.run_fastswap ~engine ~blobs ~telemetry
            ~local_budget:(budget prog) build,
          [] )
    | Local -> (Driver.run_local ~engine ~blobs ~telemetry build, [])
  in
  let exec_ns = Layers.now_ns () - !factory_at - !build_ns in
  check_ret prog o;
  { facts = run_facts o @ report; instrs = o.Driver.instrs; exec_ns }

(* {1 Traced} *)

(* These closures run once per guard or per access, so they charge their
   time with [Layers.charge] instead of opening a span frame. *)
let wrap_backend ~blobs (b : Backend.t) =
  let runtime = Layers.Runtime and access = Layers.On_access in
  let timed layer f x =
    let t0 = Layers.now_ns () in
    match f x with
    | r ->
        Layers.charge layer (Layers.now_ns () - t0);
        r
    | exception e ->
        Layers.charge layer (Layers.now_ns () - t0);
        raise e
  in
  let table = Hashtbl.create 4 in
  List.iter (fun (id, bytes) -> Hashtbl.replace table id bytes) blobs;
  (* Input blobs are copied byte by byte, as Driver's loader does. *)
  let load_blob (args : int array) =
    match Hashtbl.find_opt table args.(1) with
    | Some bytes ->
        for k = 0 to Bytes.length bytes - 1 do
          Memstore.store b.Backend.store ~addr:(args.(0) + k) ~size:1
            (Char.code (Bytes.get bytes k))
        done;
        Some 0
    | None -> failwith (Printf.sprintf "unknown blob %d" args.(1))
  in
  let has_blobs = blobs <> [] in
  let intrinsic name args =
    if has_blobs && String.equal name "!load_blob" then
      timed Layers.Blob load_blob args
    else timed runtime (b.Backend.intrinsic name) args
  in
  {
    b with
    Backend.malloc = timed runtime b.Backend.malloc;
    free = timed runtime b.Backend.free;
    realloc = (fun p n -> timed runtime (b.Backend.realloc p) n);
    intrinsic;
    (* The shared no-op hook stays unwrapped: engines compare against it
       by physical equality to compile the hook call away. *)
    on_access =
      (if b.Backend.on_access == Backend.no_access then b.Backend.on_access
       else fun ~addr ~size ~write ->
         let t0 = Layers.now_ns () in
         match b.Backend.on_access ~addr ~size ~write with
         | () -> Layers.charge access (Layers.now_ns () - t0)
         | exception e ->
             Layers.charge access (Layers.now_ns () - t0);
             raise e);
  }

(* Pipeline.run with each stage charged from its dump_after callback. *)
let pipeline config m =
  Layers.span Layers.Pipeline (fun () ->
      if not !Layers.on then Trackfm.Pipeline.run config m
      else begin
        let dump, finish = Layers.stage_clock () in
        let r =
          Trackfm.Pipeline.run
            { config with Trackfm.Pipeline.dump_after = Some dump }
            m
        in
        finish ();
        r
      end)

(* Driver.run_trackfm's configuration, field for field. *)
let tfm_config (opts : Driver.tfm_opts) profile =
  {
    Trackfm.Pipeline.object_size = opts.Driver.object_size;
    chunk_mode = opts.chunk_mode;
    profile;
    cost = Cost_model.default;
    elide = opts.elide_guards;
    summaries = opts.use_summaries;
    shapes = opts.use_shapes;
    route = opts.route;
    route_hotspots = opts.route_hotspots;
    check = true;
    dump_after = None;
  }

(* [at_peak] runs right after Engine.run returns, while the run's memory
   (module, Memstore, runtime) is still reachable. *)
let traced_run ?(at_peak = ignore) prog system engine =
  let build () = Layers.span Layers.Build prog.build in
  let blobs = prog.blobs in
  let cost = Cost_model.default in
  let clock = Clock.create () and store = Memstore.create () in
  let m, report, backend =
    match system with
    | Trackfm { route; profile } ->
        let opts = tfm_opts prog ~route ~profile in
        let profile =
          if opts.Driver.profile_gate then
            Some
              (Layers.span Layers.Profile (fun () ->
                   Driver.profile_of ~engine ~cost ~blobs build))
          else None
        in
        let m = build () in
        let report = pipeline (tfm_config opts profile) m in
        let backend =
          Layers.span Layers.Assemble (fun () ->
              let rt =
                Trackfm.Runtime.create
                  ~use_state_table:opts.use_state_table
                  ~prefetch:opts.prefetch ~telemetry:Telemetry.Sink.nop
                  ~faults:opts.faults cost clock store
                  ~object_size:opts.object_size
                  ~local_budget:opts.local_budget
              in
              Backend.trackfm rt store)
        in
        (m, report_facts report, backend)
    | Fastswap ->
        let backend =
          Layers.span Layers.Assemble (fun () ->
              Backend.fastswap ~faults:Faults.disabled cost clock store
                ~local_budget:(budget prog))
        in
        (build (), [], backend)
    | Local ->
        let backend =
          Layers.span Layers.Assemble (fun () ->
              Backend.local cost clock store)
        in
        (build (), [], backend)
  in
  let backend = wrap_backend ~blobs backend in
  let t0 = Layers.now_ns () in
  let r =
    Layers.span Layers.Exec (fun () ->
        Engine.run ~engine backend m ~entry:"main")
  in
  let exec_ns = Layers.now_ns () - t0 in
  at_peak ();
  ignore (Sys.opaque_identity (backend, m));
  let o =
    {
      Driver.ret = r.Interp.ret;
      cycles = r.Interp.cycles;
      instrs = r.Interp.instrs_executed;
      clock;
    }
  in
  check_ret prog o;
  { facts = run_facts o @ report; instrs = o.Driver.instrs; exec_ns }

(* {1 Cells} *)

(* [at_peak] runs at the end of the compile (or analysis), while the
   module, the report (or summaries and shapes) are still reachable. *)
let compile ?(at_peak = ignore) prog ~o1 config =
  let m = Layers.span Layers.Build prog.build in
  if o1 then ignore (Layers.span Layers.O1 (fun () -> Tfm_opt.O1.run m));
  let r = pipeline config m in
  (* The checker runs on every compile: called directly, so its time is
     its own layer (the same final checks Pipeline.run makes with
     [check = true], which trackfm_cli check also makes). *)
  Layers.span Layers.Checker (fun () ->
      let open Tfm_checker.Coverage in
      enforce ~summaries:config.Trackfm.Pipeline.summaries m;
      enforce_witnesses m r.Trackfm.Pipeline.elision.Trackfm.Elide_pass.elisions;
      enforce_routing m r.Trackfm.Pipeline.routing.Trackfm.Route_pass.routes);
  at_peak ();
  ignore (Sys.opaque_identity (m, r));
  { facts = report_facts r; instrs = 0; exec_ns = 0 }

let analyze ?(at_peak = ignore) prog =
  let m = Layers.span Layers.Build prog.build in
  let summaries, bottoms =
    Layers.span Layers.Summary (fun () ->
        let env = Tfm_analysis.Summary.compute m in
        (env, List.length (Tfm_analysis.Summary.lint m env)))
  in
  let shapes =
    Layers.span Layers.Shape (fun () -> Tfm_analysis.Shape.analyze m)
  in
  at_peak ();
  ignore (Sys.opaque_identity (m, summaries, shapes));
  {
    facts =
      [ ("analyze.instrs", Ir.module_instr_count m); ("analyze.bottom", bottoms) ];
    instrs = 0;
    exec_ns = 0;
  }

(* One cell. [telemetry] is the sink factory for untraced runs (the
   telemetry-overhead probe passes a recording one); traced runs always
   use the no-op sink. Passing [at_peak] selects the assembled backend
   for executing cells. *)
let run ?(telemetry = Driver.no_telemetry) ?at_peak cell =
  let one prog system engine =
    if !Layers.on || at_peak <> None then traced_run ?at_peak prog system engine
    else untraced_run ~telemetry prog system engine
  in
  match cell with
  | Run { prog; system; engine } -> one prog system engine
  | Engines { prog; system } ->
      let i = one prog system Engine.Interp in
      let c = one prog system Engine.Compiled in
      if i.facts <> c.facts then
        raise (Wrong "interp and compiled engines disagree");
      { i with instrs = i.instrs + c.instrs; exec_ns = i.exec_ns + c.exec_ns }
  | Compile { prog; o1; config } -> compile ?at_peak prog ~o1 config
  | Analyze prog -> analyze ?at_peak prog
