(** Per-flow circular payload buffer (the [rx_start|size] / [tx_start|size]
    buffers of paper Table 3).

    The buffer is addressed by monotonically increasing *stream offsets*: the
    producer's high-water mark is [head], the consumer's is [tail], and any
    offset in [\[tail, tail + capacity)] maps to a physical slot. Addressing
    by stream offset (rather than physical index) lets the TAS fast path
    deposit out-of-order segments at their final position and lets the
    transmit path re-read unacknowledged data for retransmission.

    [capacity] is the {e logical} size: the modelled window and the Table-3
    buffer size. The {e resident} backing on the host heap is allocated on
    first write and grows (powers of two, at least 64 B, clamped to the
    capacity; never shrinking) to cover the live window each access asks
    for, so an idle or lightly used flow costs no payload storage. *)

type t

val create : int -> t
(** [create capacity] is an empty buffer. [capacity] must be positive. *)

val capacity : t -> int

val head : t -> int
(** Stream offset one past the last contiguous produced byte. *)

val tail : t -> int
(** Stream offset of the first unconsumed byte. *)

val used : t -> int
(** [head - tail]. *)

val free : t -> int
(** [capacity - used]. *)

val resident_bytes : t -> int
(** Bytes of host backing currently allocated: 0 until the first write, and
    at most [capacity]. An observer only; it does not affect the model. *)

val push : t -> bytes -> off:int -> len:int -> int
(** [push t b ~off ~len] copies at most [len] bytes at [head], advances
    [head], and returns the number of bytes accepted (possibly 0 when
    full). *)

val write_at : t -> pos:int -> bytes -> off:int -> len:int -> unit
(** [write_at t ~pos b ~off ~len] deposits bytes at stream offset [pos]
    without moving [head] — out-of-order deposit. The full range must lie
    within [\[tail, tail + capacity)].
    @raise Invalid_argument otherwise. *)

val advance_head : t -> int -> unit
(** Mark [n] more bytes (already deposited via [write_at]) as contiguous.
    @raise Invalid_argument if this would exceed [tail + capacity]. *)

val read_at : t -> pos:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Copy out of the buffer without consuming. The range must lie within
    [\[tail, head)] ∪ stored out-of-order region, i.e. within
    [\[tail, tail+capacity)].
    @raise Invalid_argument otherwise. *)

val pop : t -> dst:bytes -> dst_off:int -> len:int -> int
(** [pop t ~dst ~dst_off ~len] copies up to [len] contiguous bytes from
    [tail], advances [tail], and returns the count. *)

val advance_tail : t -> int -> unit
(** Discard [n] bytes from the tail (transmit-buffer reclamation on ACK,
    §3.1). @raise Invalid_argument if [n > used]. *)
