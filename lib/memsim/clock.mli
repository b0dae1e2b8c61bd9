(** Simulated cycle clock and event counters.

    Every runtime component charges its costs here; experiments read the
    final cycle count as "execution time" and the named counters as the
    event series the paper plots (guard counts, fault counts, bytes
    transferred). *)

type t

val create : unit -> t

val tick : t -> int -> unit
(** Advance the clock by a number of cycles. *)

val cycles : t -> int

val monotonic : t -> int
(** Cycles since clock creation, {e including} everything folded away by
    {!reset}s. [!bench_begin] zeroes {!cycles} so experiments measure only
    the timed region; components whose state machines must stay coherent
    across that boundary (the replicated cluster's crash schedule and
    replication timestamps) key off this monotone timeline instead. *)

type counter
(** A handle on one named counter of one clock. Hot paths resolve their
    names once, at construction, and {!bump} the handle per event instead
    of hashing the name every time. *)

val counter : t -> string -> counter
(** The handle for a name, creating the counter at zero if needed. Taking
    a handle does not list the name in {!counters}; only a {!bump} (or
    {!count}) does, even a bump by 0. *)

val bump : counter -> int -> unit
(** Add to a counter through its handle. *)

val value : counter -> int
(** Current value of a counter; equal to {!get} on its name. *)

val count : t -> string -> int -> unit
(** [count t name n] is [bump (counter t name) n]: add to a named
    counter. For cold sites; hot paths keep a handle. *)

val get : t -> string -> int
(** Value of a named counter (0 if never counted). *)

val counters : t -> (string * int) list
(** The counters bumped since the last {!reset} (or since creation),
    sorted by name. *)

val reset : t -> unit
(** Zero the clock and all counters, and unlist every name. Counters are
    zeroed in place, so handles taken before the reset stay valid. An
    installed sampler stays installed; its next firing is one interval
    after the reset. *)

val set_sampler : t -> interval:int -> (t -> unit) -> unit
(** Install a periodic hook: [f] is called from inside {!tick} every
    [interval] simulated cycles (a tick that crosses several interval
    boundaries fires once per boundary). The telemetry layer uses this to
    snapshot counters into a time-series; with no sampler installed the
    per-tick cost is a single integer compare. The hook must not tick the
    clock. *)

val clear_sampler : t -> unit
