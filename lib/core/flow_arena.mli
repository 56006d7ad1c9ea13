(** Off-heap arena of per-flow state records.

    The paper's Table 3 keeps all per-flow fast-path state in a compact
    102-byte record so a flow's entire working set fits in two cache lines.
    This module is the literal analogue: a single [Bigarray] allocation
    outside the OCaml heap, divided into 102-byte slots at fixed field
    offsets, with a free list for slot reuse. The GC never scans or moves
    it, and a live flow costs exactly [slot_bytes] bytes of state.

    This module is only the slab: allocation, generation counters,
    {!detach}, the bytes themselves and the layout table. Field widths
    match the wire/table widths (u8/u16/u24/u32/u48/u64), so every field
    silently wraps at its declared width exactly like the C struct would.

    Slots carry a generation counter bumped on [free], so tests can assert
    that a slot was recycled. A record that must outlive its slot is moved
    out with {!detach} instead of being read through a stale index. *)

type bytes_arr =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = private {
  data : bytes_arr;  (** slot [i] starts at byte [i * slot_bytes] *)
  capacity : int;
  free_list : int array;
  mutable free_top : int;
  used : Bytes.t;
  detached : bool;
}
(** Read-only outside this module, so {!Flow_state} reaches the bytes in
    one load with no extra field per flow. *)

val slot_bytes : int
(** Bytes per record: 102 (Table 3). *)

val create : ?capacity:int -> unit -> t
(** [capacity] slots (default 4096), one contiguous off-heap allocation. *)

val capacity : t -> int

val live : t -> int
(** Slots currently allocated. *)

val available : t -> int
(** Slots left before {!alloc} returns [None]. *)

val alloc : t -> int option
(** Pop a slot off the free list, zeroed except its generation counter.
    [None] when the arena is exhausted — the caller refuses the flow rather
    than falling back to heap allocation. *)

val free : t -> int -> unit
(** Return a slot to the free list and bump its generation. Raises
    [Invalid_argument] on a double free or an out-of-range slot. *)

val in_use : t -> int -> bool

val generation : t -> int -> int
(** Recycling counter of a slot (u16, wraps). Raises [Invalid_argument] on
    an out-of-range slot, like {!free}. *)

val detach : t -> int -> t
(** [detach t slot] moves the live slot's 102 bytes into a fresh private
    one-slot arena (its record at slot 0, marked {!detached}) and frees
    [slot] in [t]. Whoever keeps the copy reads and writes the flow's final
    state without ever reaching [t]'s slab again, so a recycled slot can
    never alias it. Raises [Invalid_argument] when [slot] is not in use. *)

val detached : t -> bool
(** The arena was made by {!detach}. *)

(** {2 Layout and raw access}

    {!Flow_state} owns the typed Table-3 accessors: it reads and writes its
    own slot of [data] with the 16/32-bit bigstring primitives. This
    module keeps the layout table and one raw reader/writer, for the
    allocator's generation counter and for tests.

    Layout (byte offset, width):

    {v
      0  8  opaque        40  4  tx_span (i32)   66  2  dupack_cnt
      8  4  seq           44  4  rx_span (i32)   68  2  cnt_frexmits
     12  4  ack           48  4  ooo_start       70  6  peer_mac
     16  4  tx_sent       52  4  ooo_len         76  1  peer_wscale
     20  4  window        56  4  peer_ip         77  1  flags
     24  4  cnt_ackb      60  2  local_port      78  2  generation
     28  4  cnt_ecnb      62  2  peer_port       80  4  rx_head
     32  4  rtt_est       64  2  context         84  4  rx_tail
     36  4  ts_recent                            88  4  tx_head
                                                 92  4  tx_tail
                                                 96  3  rx_size
                                                 99  3  tx_size
    v} *)

val read : t -> int -> off:int -> width:int -> int
(** [read t slot ~off ~width] is the little-endian [width]-byte field at
    byte [off] of [slot], zero-extended. An 8-byte field yields bits 0-62
    (byte 7 carries bits 56-62). Unchecked: [slot] must be one returned by
    {!alloc}, or slot 0 of an arena returned by {!detach}. *)

val write : t -> int -> off:int -> width:int -> int -> unit
(** [write t slot ~off ~width v] stores the low [width] bytes of [v]
    little-endian at byte [off] of [slot]; the field wraps at its width.
    Unchecked, like {!read}. *)

val field_layout : (string * int * int) list
(** [(name, byte offset, byte width)] for every field above, in offset
    order — the machine-checkable Table-3 layout used by the docs and the
    differential tests of {!Flow_state}'s accessors. *)
