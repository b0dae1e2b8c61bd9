(** IR interpreter.

    Executes a module against a {!Backend.t}, charging simulated cycles:
    one cycle per ALU/branch instruction, the backend's local-access cost
    per load/store, plus whatever the backend's allocation hooks and
    runtime intrinsics charge (guards, faults, network transfers).

    The interpreter computes real values — stores actually write the
    memstore, so workloads can assert functional results, which is how
    the test suite proves the transformation passes preserve program
    semantics. *)

exception Trap of string
(** Ill-typed operand, unknown callee, division by zero, out-of-fuel. *)

type result = {
  ret : int;               (** [main]'s return value (0 if [ret void]) *)
  cycles : int;            (** final simulated clock *)
  instrs_executed : int;
}

val run :
  ?profile:Profile.t ->
  ?shadow:Shadow.t ->
  ?fuel:int ->
  ?args:int list ->
  Backend.t ->
  Ir.modul ->
  entry:string ->
  result
(** [run backend m ~entry] executes [entry] (typically ["main"]).
    [profile] accumulates block execution counts for the chunking gate:
    each block counts its executions in its own slot, and the non-zero
    counts are added to [profile] once, when the run returns or traps.
    [shadow] records per-site dependent-load depths (the shape
    analysis's dynamic audit). [fuel] bounds total executed instructions
    (default 2_000_000_000). *)
