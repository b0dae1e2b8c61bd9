(** Sparse byte-addressable backing storage.

    Both the "local DRAM" and the "remote server" of the simulated cluster
    store real data here, so workloads compute real results (STREAM sums
    check out, hash lookups return the stored values). Pages materialize
    lazily and read as zero before the first write, like anonymous mmap.

    Pages are found through a {!Pagedir}, a sparse page directory: page
    index [addr lsr 12] splits into a 1 GiB segment (matched against the
    segment used last), a directory slot and a leaf slot, so finding a
    page is a compare and two array reads, with no hashing or allocation.
    Directory memory grows with the 2 MiB regions touched, not with the
    address, so the heap at [1 lsl 44] costs the same as address 0. *)

type t

val create : unit -> t

val load : t -> addr:int -> size:int -> int
(** Little-endian load of 1, 2, 4 or 8 bytes. 8-byte loads return the
    word with its top bit cleared ([land max_int] on the 63-bit OCaml
    int), so results are never negative: bits 62 and 63 of the stored
    word read as zero. Stores of non-negative ints below [2^62] round-trip
    exactly (all simulated data fits). *)

val store : t -> addr:int -> size:int -> int -> unit

val load_float : t -> addr:int -> float
val store_float : t -> addr:int -> float -> unit

val load64 : t -> addr:int -> int64
val store64 : t -> addr:int -> int64 -> unit
(** Exact 64-bit accessors for byte movers that must preserve every bit
    ({!load} with [size:8] truncates to 63 bits and would clear the sign
    bit of stored doubles); used by the replication tier's copies and
    checksums. *)

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Copy a byte range (used by realloc). *)

val page_size : int
(** Granularity of lazy materialization (4096). *)

val page_bits : int
(** [log2 page_size]. *)

val page_mask : int
(** [page_size - 1]. *)

val page_of : t -> int -> Bytes.t
(** [page_of t idx] is the backing bytes of page [idx], materializing a
    zeroed page on first touch. Pages are never dropped or replaced, so
    the handle stays valid (and authoritative) for the lifetime of [t];
    the compiled execution engine caches it per access site so that
    page-local streaks skip the directory walk (segment compare, two
    array reads, absent-page test) and the call into this module. *)
