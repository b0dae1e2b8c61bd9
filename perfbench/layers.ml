(* Host-time accounting taken from outside each layer.

   Every number here is measured at a public boundary the benchmark
   itself calls or hands to the library: a thunk it passes in, a callback
   the pipeline fires, or a closure of a backend it assembled. Nothing
   inside lib/ is instrumented.

   Timing uses self time: a span's inclusive duration is charged to its
   layer and subtracted from the enclosing span, so the self times of all
   layers sum exactly to the outermost spans' wall time. *)

type layer =
  | Build  (** IR construction: the workload's build thunk *)
  | Profile  (** Driver.profile_of, minus the builds it calls *)
  | Pipeline  (** Pipeline.run not claimed by a stage (callback cost) *)
  | Init
  | Chunk
  | Summary  (** the "summaries" stage and direct Summary.compute calls *)
  | Guard
  | Elide
  | Route
  | Libc
  | Finish  (** after the last stage: final coverage check and report *)
  | Assemble  (** runtime, backend and sink construction *)
  | Exec  (** Engine.run not claimed by a backend closure: dispatch *)
  | Runtime  (** inside the backend's intrinsic, malloc and free closures *)
  | On_access  (** inside the backend's per-access hook *)
  | Blob  (** copying input blobs into simulated memory *)
  | Checker  (** direct Coverage.enforce* calls *)
  | Shape  (** direct Shape.analyze calls *)
  | O1  (** direct O1.run calls *)
  | Oracle  (** the benchmark's own result checks *)

let all =
  [
    Build; Profile; Pipeline; Init; Chunk; Summary; Guard; Elide; Route;
    Libc; Finish; Assemble; Exec; Runtime; On_access; Blob; Checker; Shape;
    O1; Oracle;
  ]

let index = function
  | Build -> 0
  | Profile -> 1
  | Pipeline -> 2
  | Init -> 3
  | Chunk -> 4
  | Summary -> 5
  | Guard -> 6
  | Elide -> 7
  | Route -> 8
  | Libc -> 9
  | Finish -> 10
  | Assemble -> 11
  | Exec -> 12
  | Runtime -> 13
  | On_access -> 14
  | Blob -> 15
  | Checker -> 16
  | Shape -> 17
  | O1 -> 18
  | Oracle -> 19

let name = function
  | Build -> "workloads.build"
  | Profile -> "driver.profile"
  | Pipeline -> "trackfm.pipeline_self"
  | Init -> "trackfm.init"
  | Chunk -> "trackfm.chunk"
  | Summary -> "analysis.summary"
  | Guard -> "trackfm.guard"
  | Elide -> "trackfm.elide"
  | Route -> "trackfm.route"
  | Libc -> "trackfm.libc"
  | Finish -> "trackfm.finish"
  | Assemble -> "driver.assemble"
  | Exec -> "interp.dispatch"
  | Runtime -> "trackfm.runtime"
  | On_access -> "fastswap.on_access"
  | Blob -> "workloads.blob_load"
  | Checker -> "checker.coverage"
  | Shape -> "analysis.shape"
  | O1 -> "opt.o1"
  | Oracle -> "bench.oracle"

(* The pipeline's dump_after names, in pipeline order. A stage this list
   does not know stays in the pipeline's own time. *)
let of_stage = function
  | "runtime-init" -> Init
  | "loop-chunking" -> Chunk
  | "summaries" -> Summary
  | "guard-transform" -> Guard
  | "guard-elision" -> Elide
  | "hybrid-routing" -> Route
  | "libc-transform" -> Libc
  | _ -> Pipeline

let nlayers = List.length all

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Accumulators, indexed by [index]. Minor words and major collections
   are taken at span boundaries only, never in the per-call closures. *)
let self_ns = Array.make nlayers 0
let calls = Array.make nlayers 0
let minor_words = Array.make nlayers 0.
let majors = Array.make nlayers 0

(* Off in untraced runs: [span] then costs one branch. *)
let on = ref false

type frame = { layer : int; t0 : int; minor0 : float; major0 : int }

let stack : frame list ref = ref []

(* Index of the innermost open span; charges made outside any span go to
   [Oracle] (the benchmark's own code). *)
let top = ref (index Oracle)

let major_count () = (Gc.quick_stat ()).Gc.major_collections

let leave () =
  match !stack with
  | [] -> invalid_arg "Layers.leave: no open span"
  | f :: rest ->
      let dt = now_ns () - f.t0 in
      let dminor = Gc.minor_words () -. f.minor0 in
      let dmajor = major_count () - f.major0 in
      self_ns.(f.layer) <- self_ns.(f.layer) + dt;
      calls.(f.layer) <- calls.(f.layer) + 1;
      minor_words.(f.layer) <- minor_words.(f.layer) +. dminor;
      majors.(f.layer) <- majors.(f.layer) + dmajor;
      stack := rest;
      (match rest with
      | p :: _ ->
          self_ns.(p.layer) <- self_ns.(p.layer) - dt;
          minor_words.(p.layer) <- minor_words.(p.layer) -. dminor;
          majors.(p.layer) <- majors.(p.layer) - dmajor;
          top := p.layer
      | [] -> top := index Oracle)

let span layer f =
  if not !on then f ()
  else begin
    let i = index layer in
    stack :=
      {
        layer = i;
        t0 = now_ns ();
        minor0 = Gc.minor_words ();
        major0 = major_count ();
      }
      :: !stack;
    top := i;
    match f () with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e
  end

(* Charge [dt] measured by the caller to [layer], taking it out of the
   innermost open span. Used by the hot backend closures and by the
   pipeline-stage callback, where a span frame would cost too much or
   the interval has no enclosing call. *)
let charge layer dt =
  let i = index layer in
  self_ns.(i) <- self_ns.(i) + dt;
  calls.(i) <- calls.(i) + 1;
  self_ns.(!top) <- self_ns.(!top) - dt

(* A dump_after callback that charges each pipeline stage the interval
   since the previous stage ended, and a finisher for the tail. *)
let stage_clock () =
  let last = ref (now_ns ()) in
  let dump stage _m =
    let t = now_ns () in
    charge (of_stage stage) (t - !last);
    last := t
  in
  let finish () = charge Finish (now_ns () - !last) in
  (dump, finish)

let seconds layer = float_of_int self_ns.(index layer) *. 1e-9
let count layer = calls.(index layer)
let minor_mwords layer = minor_words.(index layer) *. 1e-6
let major_collections layer = majors.(index layer)
