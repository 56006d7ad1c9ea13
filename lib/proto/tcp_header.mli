(** TCP header with the options TAS uses: MSS (on SYN), window scale (on
    SYN), timestamps (every segment; the fast path uses them for RTT
    estimation feeding congestion control, §3.1), and SACK blocks (on ACKs
    of receivers running a SACK-class recovery policy). *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  ece : bool;  (** ECN-echo: receiver feedback of CE marks (DCTCP). *)
  cwr : bool;
}

type options = {
  mss : int option;
  wscale : int option;
  timestamp : (int * int) option;  (** (ts_val, ts_ecr). *)
  sack : (Seq32.t * Seq32.t) list;
      (** RFC 2018 blocks, [(start, end)] half-open in sequence space,
          most recently updated first. At most 3 fit beside the timestamp
          option (the standard 40-byte option budget); [\[\]] adds zero
          wire bytes, so non-SACK stacks are byte-identical. *)
}

type t = {
  src_port : Addr.port;
  dst_port : Addr.port;
  seq : Seq32.t;
  ack : Seq32.t;
  flags : flags;
  window : int;
  options : options;
}

val no_flags : flags
val no_options : options

val data_flags : flags
(** ACK + PSH: the common-case data segment. *)

val ack_flags : flags

val min_size : int
(** Wire size of a header without options: 20 bytes. *)

val size : t -> int
(** Wire size: [min_size] plus padded options. *)

val write : t -> bytes -> off:int -> int
(** Serializes (checksum field written as zero; TCP checksums over the
    pseudo-header are applied by {!Packet.to_wire}). Returns bytes written. *)

val read : bytes -> off:int -> t * int
(** [read buf ~off] parses and returns the header and its size in bytes.
    Unknown options are skipped.
    @raise Invalid_argument on short/corrupt input. *)

val pp : Format.formatter -> t -> unit
