(** A simulated TCP/IPv4/Ethernet packet.

    Packets travel through the network simulator as structured records (no
    per-hop reserialization — the simulator charges wire size for link
    transit). [to_wire]/[of_wire] produce and parse the real byte-level
    format, including the TCP pseudo-header checksum; they are exercised by
    the test suite and microbenchmarks to keep the structured form honest. *)

type t = {
  eth : Eth_header.t;
  ip : Ipv4_header.t;
  tcp : Tcp_header.t;
  payload : bytes;
  mutable span : int;
      (** span-trace id annotation, -1 when unsampled. Simulator metadata
          (the analogue of a driver mbuf field), not part of the wire
          format: [to_wire] ignores it and [of_wire] yields -1. *)
  mutable corrupt : bool;
      (** payload/checksum damage marker set by fault injection. The
          structured packet form carries no computed checksum, so the flag
          stands in for "the TCP checksum would not verify": NIC receive
          validation drops flagged packets, modelling hardware checksum
          offload. [make]/[of_wire] yield [false]. *)
  mutable refs : int;
      (** reference count for payload-buffer recycling; use {!retain} and
          {!release}. Stages that extend a packet's lifetime past its
          delivery (taps, fault duplication, slow-path reinjection) retain;
          the consuming fast path releases. [make]/[of_wire] yield 1. *)
  mutable pooled : bool;
      (** whether [payload] came from a {e buffer pool} and should be
          recycled when the last reference is released; set via
          {!mark_pooled}. [make]/[of_wire] yield [false]. *)
}

val make :
  src_mac:Addr.mac ->
  dst_mac:Addr.mac ->
  src_ip:Addr.ipv4 ->
  dst_ip:Addr.ipv4 ->
  ?ecn:Ipv4_header.ecn ->
  tcp:Tcp_header.t ->
  payload:bytes ->
  unit ->
  t
(** Builds a packet with a consistent IP total length. Default ECN codepoint
    is ECT(0), as DCTCP senders mark all data packets ECN-capable. *)

val placeholder : unit -> t
(** An all-zero, payload-free packet that fills the unused cells of packet
    arrays (FIFOs) so they keep no real packet alive. Never sent. *)

val wire_size : t -> int
(** Bytes on the wire including Ethernet header (no FCS/preamble). *)

val payload_len : t -> int

val well_formed : t -> bool
(** Structural consistency: the IP total length matches the actual header
    and payload sizes and the protocol is TCP. Header-corrupting faults
    break exactly this invariant; the fast path validates it and drops
    malformed packets before touching flow state. *)

val flow_hash : t -> int
(** Deterministic hash of the 4-tuple, symmetric per direction as computed by
    receive-side scaling: used by NIC RSS to pick a queue. Equal to
    [Addr.Four_tuple.sym_hash (four_tuple_at_receiver t)], and allocates
    nothing. *)

val four_tuple_at_receiver : t -> Addr.Four_tuple.t
(** The connection key as seen by the host receiving this packet. *)

val to_wire : t -> bytes
(** Serialize to wire format with correct IP and TCP checksums. *)

val of_wire : bytes -> t
(** Parse wire format. @raise Invalid_argument on corrupt input. *)

val tcp_checksum_ok : bytes -> bool
(** Validate the TCP checksum of a wire-format packet. Never raises: it is
    [false] for a frame shorter than its Ethernet and IPv4 headers, a
    non-IPv4 frame (ethertype or version), and an IPv4 [total_length] too
    small for a TCP header or extending past the end of the buffer. *)

val mark_pooled : t -> unit
(** Mark the payload as pool-owned: the final {!release} will surface it for
    recycling. No-op for empty payloads. *)

val retain : t -> unit
(** Extend the packet's lifetime by one reference. Call when stashing a
    packet beyond the current delivery (tap rings, duplicate deliveries,
    reinjection queues). *)

val release : t -> bytes option
(** Drop one reference. Returns the payload exactly once — when the count
    hits zero and the payload is pool-owned — so the caller can return it to
    its buffer pool. Packets that are never released are simply reclaimed by
    the GC; the pool is an optimisation, not a requirement. *)

val pp : Format.formatter -> t -> unit
