(** Replicated remote-memory tier: N nodes, crash faults, recovery.

    The single immortal memory server becomes a cluster of [replicas]
    nodes. An object's replica set is the whole ring starting at its
    primary ([hash key mod N]); a writeback lands synchronously on the
    first [ack] healthy replicas and with a short lag on the rest; reads
    are served primary-first and fail over to the next healthy replica.
    Per-node crash schedules ([crash=PERIOD:DOWNTIME] in the fault spec)
    wipe a node's copies; [corrupt=RATE] flips bits on fetched payloads
    in transit, detected via the per-object checksum envelope and
    repaired by re-fetching.

    Data loss is {e observable}: when no replica (current or lagged)
    holds an object, {!declare_lost} zeroes its bytes in the main store
    so the workload's own checksum comes out wrong — the durability
    experiment's assertion. A single-node cluster under a crash schedule
    loses exactly this way; [replicas >= 2] survives provided recovery
    resync ({!resync_step}, driven from the evacuator loops) keeps up.

    Everything is deterministic: crash windows are pure functions of
    (seed, node, index), corruption draws of (seed, node, per-node fetch
    sequence), all on {!Clock.monotonic} so the [!bench_begin] clock
    reset cannot desynchronize them.

    This module moves bytes and tracks replica state only; wire costs,
    retries and the [net.*] counters live in {!Net}, which orchestrates
    it. Counters charged here: [cluster.crashes], [cluster.recoveries]. *)

type t

type event =
  | Node_crashed of { node : int; at : int; until : int; lost : int }
      (** node [node] was down during [at .. until] (monotonic cycles)
          and lost [lost] object copies (attributed to the newest window
          when several are processed in one lazy batch) *)
  | Node_recovered of { node : int; at : int; missing : int }
      (** node [node] came back at [at] with [missing] objects to
          re-replicate; it serves reads again immediately, the copies
          stream back via {!resync_step} *)

val check_replicas : int -> (unit, string) result
(** [Ok ()] iff [1 <= replicas <= 8]; otherwise why not. *)

val check_ack : replicas:int -> int -> (unit, string) result
(** [Ok ()] iff [1 <= ack <= replicas]; otherwise why not. *)

val create :
  ?seed:int ->
  clock:Clock.t ->
  store:Memstore.t ->
  replicas:int ->
  ack:int ->
  crash_period:int ->
  crash_downtime:int ->
  corrupt:float ->
  unit ->
  t
(** [store] is the authoritative main store the workloads compute
    against. @raise Invalid_argument unless [1 <= ack <= replicas <= 8],
    [0 < crash_downtime < crash_period] (when [crash_period > 0]) and
    [0 <= corrupt < 1]. *)

val create_opt :
  ?seed:int ->
  clock:Clock.t ->
  store:Memstore.t ->
  replicas:int ->
  ack:int ->
  faults:Faults.config ->
  unit ->
  t option
(** [None] when [replicas = 1] and the fault config has no crash or
    corrupt component: the pre-replication model applies and callers
    must take the original code path (the zero-cost guarantee the CI
    golden diff enforces). *)

val set_on_event : t -> (event -> unit) -> unit
(** Observe crash/recovery events (telemetry bridge). One handler; the
    last installed wins. *)

val replicas : t -> int
val ack : t -> int

val primary : t -> key:int -> int
(** The object's primary node ([hash key mod replicas]). *)

val has_object : t -> key:int -> bool
(** Has [key] ever been written back (directory membership)? Objects
    never written back take the unreplicated fetch path: the remote tier
    holds nothing to lose for them. *)

val directory_size : t -> int

(** {2 Data plane (driven by {!Net})} *)

type wb = { written : int; lagged : int; skipped : int }

val writeback : t -> key:int -> size:int -> wb
(** Replicate [size] bytes at main-store address [key] (the key {e is}
    the object's base address) across the replica set: bytes are copied
    into each healthy node's store, the directory entry gets a fresh
    version and checksum. [written] copies landed ([ack] of them
    synchronous, [lagged] of them visible only after the replication
    lag), [skipped] replicas were down. *)

val read_candidates : t -> key:int -> int list
(** Healthy nodes holding a current, visible copy of [key],
    primary-first — the failover ladder for a fetch. Empty when the
    object is unknown or no such copy exists. *)

val earliest_pending : t -> key:int -> int option
(** Earliest monotonic time at which some lagged copy of [key] on a
    healthy node becomes visible; [None] if no copy is in flight. A
    fetch with no candidates waits for this before declaring loss. *)

val deliver : t -> key:int -> node:int -> [ `Delivered | `Stale | `Lost ]
(** Copy the object's bytes from [node]'s store back into the main
    store: the localization payload. [`Stale] when the main-store range
    no longer matches the object's last-writeback checksum — the range
    was rewritten behind the memory system's back (allocator reuse after
    free, realloc's direct blit), so the replicas shadow a dead logical
    object; the entry is invalidated and main is left untouched.
    [`Lost] when the object vanished from the directory after the caller
    chose [node] (a crash window crossed mid-fetch and took the last
    copy): the loss was already declared, main already zeroed. *)

val declare_lost : t -> key:int -> [ `Lost | `Stale ]
(** No replica holds [key] and none is in flight. If main still matches
    the last writeback ([`Lost]): zero the object's bytes in the main
    store (the workload now observes the loss) and drop it from the
    directory. If main has diverged ([`Stale]): only a stale shadow
    died — drop the entry, nothing is zeroed, no data was lost.
    Idempotent. *)

val corrupt_draw : t -> node:int -> bool
(** Did this fetch from [node] arrive corrupted? Consumes the node's
    fetch sequence number; pure in (seed, node, sequence). Corruption
    is transit-only — the stored copy is intact, so a re-fetch can
    repair. Always [false] when [corrupt = 0]. *)

(** {2 Recovery} *)

val resync_step : t -> budget:int -> int
(** Advance background re-replication: copy up to [budget] missing
    objects from healthy holders onto recovering nodes, returning the
    number moved. Driven from the evacuator/reclaim loops so recovery
    makes progress while the application runs; replica-to-replica
    traffic costs the compute node only the orchestration cycles {!Net}
    charges. *)

val resync_backlog : t -> int
(** Objects still awaiting re-replication across all recovering nodes. *)

(** {2 Introspection (tests, telemetry)} *)

val node_state : t -> int -> [ `Up | `Down | `Recovering ]

val crash_window : t -> node:int -> int -> (int * int) option
(** [crash_window t ~node i] is node [node]'s [i]-th (0-based) crash
    window as [(start, stop)] on the monotonic clock; [None] when crash
    faults are disabled. Pure — exposed for tests and the CI matrix. *)

val object_checksum : t -> key:int -> int option
(** Current directory checksum of [key] (the envelope a fetch verifies
    against). *)
