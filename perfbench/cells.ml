(* The three workloads as lists of cells.

   A cell is one unit of closed-loop work: one compile-and-run, one
   compile, or one direct analysis. A pass runs a workload's cells back
   to back; the next cell starts only when the previous one finished. *)

type program = {
  pname : string;
  build : unit -> Ir.modul;
  blobs : (int * Bytes.t) list;
  expected : int;  (** host oracle: the checksum the program must return *)
  working_set : int;
  op_classes : (int * string) list;
}

type system =
  | Trackfm of { route : Trackfm.Route_pass.mode; profile : bool }
  | Fastswap
  | Local

type cell =
  | Run of { prog : program; system : system; engine : Engine.t }
      (** one compile-and-run, as [trackfm_cli run] does it *)
  | Engines of { prog : program; system : system }
      (** the same run on both engines, which must agree exactly *)
  | Compile of {
      prog : program;
      o1 : bool;
      config : Trackfm.Pipeline.config;
    }
      (** one compile, checked directly by the coverage checker *)
  | Analyze of program
      (** direct Summary.compute and Shape.analyze on the raw module *)

let program = function
  | Run { prog; _ } | Engines { prog; _ } | Compile { prog; _ } | Analyze prog ->
      prog

type size = Tiny | Full

(* Local memory, as a share of the working set, for every far-memory
   run: the paper's headline operating point. *)
let local_pct = 25

(* Same rounding as [trackfm_cli run -m]. *)
let budget prog = max (16 * 4096) (prog.working_set * local_pct / 100)

let system_name = function
  | Trackfm { route = `Off; _ } -> "trackfm"
  | Trackfm { route; _ } ->
      "trackfm/route=" ^ Trackfm.Route_pass.mode_to_string route
  | Fastswap -> "fastswap"
  | Local -> "local"

let onoff b = if b then "on" else "off"

let name = function
  | Run { prog; system; engine } ->
      Printf.sprintf "%s %s %s" prog.pname (system_name system)
        (Engine.to_string engine)
  | Engines { prog; system } ->
      Printf.sprintf "%s %s interp=compiled" prog.pname (system_name system)
  | Compile { prog; o1; config = c } ->
      Printf.sprintf "%s compile chunk=%s elide=%s summ=%s route=%s o1=%s"
        prog.pname
        (match c.Trackfm.Pipeline.chunk_mode with
        | `Off -> "off"
        | `Gated -> "gated"
        | `All -> "all")
        (onoff c.elide) (onoff c.summaries)
        (Trackfm.Route_pass.mode_to_string c.route)
        (onoff o1)
  | Analyze prog -> prog.pname ^ " analyze"

(* {1 Programs} *)

let kmeans n =
  let p = Kmeans.default_params ~n in
  {
    pname = "kmeans";
    build = Kmeans.build p;
    blobs = [];
    expected = Kmeans.checksum p;
    working_set = Kmeans.working_set_bytes p;
    op_classes = Kmeans.op_classes;
  }

let analytics rows =
  let p = Analytics.default_params ~rows in
  {
    pname = "analytics";
    build = Analytics.build p;
    blobs = [];
    expected = Analytics.checksum p;
    working_set = Analytics.working_set_bytes p;
    op_classes = [];
  }

(* The workload seed drives the Zipf traces; the programs only ever see
   the generated trace blob. *)
let hashmap ~seed keys lookups =
  let p = { (Hashmap.default_params ~keys ~lookups) with Hashmap.seed } in
  {
    pname = "hashmap";
    build = Hashmap.build p;
    blobs = [ (0, Hashmap.trace_blob p) ];
    expected = Hashmap.checksum p;
    working_set = Hashmap.working_set_bytes p;
    op_classes = Hashmap.op_classes;
  }

let memcached ~seed keys gets =
  let p =
    { (Memcached.default_params ~keys ~gets ~skew:1.1) with Memcached.seed }
  in
  {
    pname = "memcached";
    build = Memcached.build p;
    blobs = [ (0, Memcached.trace_blob p) ];
    expected = Memcached.checksum p;
    working_set = Memcached.working_set_bytes p;
    op_classes = Memcached.op_classes;
  }

let chase nodes =
  {
    pname = "pointer-chase";
    build = Chase.build ~nodes;
    blobs = [];
    expected = Chase.checksum ~nodes;
    working_set = Chase.working_set_bytes ~nodes;
    op_classes = [];
  }

let llist nodes tnodes =
  {
    pname = "llist";
    build = Llist.build ~nodes ~tnodes;
    blobs = [];
    expected = Llist.checksum ~nodes ~tnodes;
    working_set = Llist.working_set_bytes ~nodes ~tnodes;
    op_classes = [];
  }

let stream n kernel =
  {
    pname = "stream-" ^ Stream.kernel_name kernel;
    build = Stream.build ~n ~kernel;
    blobs = [];
    expected = Stream.checksum ~n ~kernel ();
    working_set = Stream.working_set_bytes ~n ~kernel ();
    op_classes = [];
  }

let nas kernel =
  let p = Nas.default_params kernel in
  {
    pname = "nas-" ^ Nas.kernel_name kernel;
    build = Nas.build p;
    blobs = [];
    expected = Nas.checksum p;
    working_set = Nas.working_set_bytes p;
    op_classes = [];
  }

(* Every workload module [trackfm_cli list] registers, at a small size
   (NAS has no size below scale 1). The IR, and so the compile cost, does
   not depend on the size; the sizes are large enough that each module's
   run is execution rather than set-up of the simulated machine. *)
let registered ~seed =
  List.map (stream 8_000) [ Stream.Sum; Stream.Copy; Stream.Scale; Stream.Triad ]
  @ [
      kmeans 800;
      hashmap ~seed 4_000 8_000;
      memcached ~seed 4_000 4_000;
      analytics 4_800;
      chase 8_000;
      llist 4_000 2_000;
    ]
  @ List.map nas Nas.all_kernels

(* {1 Workloads} *)

let scale size n = match size with Full -> n | Tiny -> max 1 (n / 16)

(* A fifth to a twelfth of [trackfm_cli run]'s default sizes. The layers
   are those of the CLI and paper-figure runs, but the compiler takes
   about 3% of a pass instead of under 1%, and the profile pre-run's
   share differs by up to 9 points (README.md). At the CLI sizes the
   fastest pass varied about twice as much from run to run on a shared
   host. *)
let tfm_apps ~size ~seed =
  let s = scale size in
  let tfm = Trackfm { route = `Off; profile = true } in
  let run system prog = Run { prog; system; engine = Engine.Compiled } in
  [
    run tfm (kmeans (s 3_000));
    run tfm (analytics (s 12_000));
    run tfm (hashmap ~seed (s 16_000) (s 40_000));
    run tfm (memcached ~seed (s 8_000) (s 8_000));
    run (Trackfm { route = `Static; profile = true }) (llist (s 16_000) (s 8_000));
  ]

let paging_interp ~size ~seed =
  let s = scale size in
  let progs =
    [
      kmeans (s 3_000);
      analytics (s 12_000);
      hashmap ~seed (s 8_000) (s 20_000);
      chase (s 20_000);
    ]
  in
  List.concat_map
    (fun prog ->
      List.map
        (fun system -> Run { prog; system; engine = Engine.Interp })
        [ Fastswap; Local ])
    progs

(* The CI [check] matrix (chunk mode x elision x summaries x route) times
   O1 on/off, for every registered module; then each module once on both
   engines. NAS kernels are compiled but not executed: their smallest
   size (scale 1) takes about 13 s on the two engines, five times the
   whole compile matrix, and tier-1 already runs them on every backend. *)
let compile_matrix ~size:_ ~seed =
  let configs =
    List.concat_map
      (fun chunk_mode ->
        List.concat_map
          (fun elide ->
            List.concat_map
              (fun summaries ->
                List.concat_map
                  (fun route ->
                    List.map
                      (fun o1 ->
                        ( o1,
                          {
                            Trackfm.Pipeline.default_config with
                            chunk_mode;
                            elide;
                            summaries;
                            route;
                            check = false;
                          } ))
                      [ false; true ])
                  [ `Off; `Static ])
              [ true; false ])
          [ true; false ])
      [ `Off; `Gated ]
  in
  let nas_names = List.map (fun k -> "nas-" ^ Nas.kernel_name k) Nas.all_kernels in
  List.concat_map
    (fun prog ->
      (Analyze prog
      :: List.map (fun (o1, config) -> Compile { prog; o1; config }) configs)
      @
      if List.mem prog.pname nas_names then []
      else [ Engines { prog; system = Trackfm { route = `Static; profile = false } } ])
    (registered ~seed)

let all = [ "tfm-apps"; "paging-interp"; "compile-matrix" ]

let of_name = function
  | "tfm-apps" -> Some tfm_apps
  | "paging-interp" -> Some paging_interp
  | "compile-matrix" -> Some compile_matrix
  | _ -> None
