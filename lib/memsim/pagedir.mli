(** Sparse int-indexed map shaped like a page table.

    An index splits into three parts, high to low: a segment key
    ([idx lsr 18]; with 4 KiB pages, one segment spans 1 GiB), a
    512-entry directory slot and a 512-entry leaf slot. A lookup compares
    the key with the segment used last and, on a miss, scans the few
    segments that exist; it then reads two array slots. No hashing, no
    allocation.

    Leaves are allocated on the first {!set} into their 512-index range
    (2 MiB of 4 KiB pages), directories on the first {!set} into their
    segment, so memory grows with the regions touched, never with the
    magnitude of the index: the simulated heap sits at [1 lsl 44] and
    costs the same as address 0. Nothing is ever freed. *)

type 'a t

val create : 'a -> 'a t
(** [create d] is an empty map in which every index reads as [d]. *)

val get : 'a t -> int -> 'a
(** The value last {!set} at an index, or the default. *)

val set : 'a t -> int -> 'a -> unit
