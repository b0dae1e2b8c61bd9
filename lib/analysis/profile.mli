(** Execution profiles: block-frequency counts.

    NOELLE's profiling engine feeds TrackFM's improved loop chunking
    (Section 3.4): loops whose measured iteration behaviour cannot
    amortize the chunking setup are filtered out. Our profile is filled
    by a profiled run on either engine ([Interp.run] or [Compile.run]
    with [~profile]) and consumed by the chunking pass's gate. The
    engines count executions in per-block slots and fold the non-zero
    counts in here once, when the run returns or traps, so nothing on the
    per-block path touches this table. *)

type t

val create : unit -> t

val add_block : t -> func:string -> block:string -> int -> unit
(** Accumulate executions of one block. *)

val block_count : t -> func:string -> block:string -> int

val avg_trip_count :
  t -> func:string -> header:string -> preheader:string -> float option
(** Mean iterations per loop entry, derived as
    [header executions / preheader executions] (our canonical loops test
    the condition in the header, so the header runs trip+1 times per
    entry; the estimate subtracts that final check). [None] when the loop
    was never entered. *)
