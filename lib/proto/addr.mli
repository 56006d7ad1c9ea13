(** Network addresses.

    IPv4 addresses and MAC addresses are stored as plain integers so they can
    be hashed and compared cheaply in flow tables. *)

type ipv4 = int
(** IPv4 address as a 32-bit value in host order. *)

type mac = int
(** MAC address as a 48-bit value. *)

type port = int
(** TCP port, 16-bit. *)

val ipv4_of_string : string -> ipv4
(** [ipv4_of_string "10.0.0.1"] parses a dotted quad.
    @raise Invalid_argument on malformed input. *)

val ipv4_to_string : ipv4 -> string

val pp_ipv4 : Format.formatter -> ipv4 -> unit
val pp_mac : Format.formatter -> mac -> unit

val host_ip : int -> ipv4
(** [host_ip i] is a conventional simulator address for host number [i]
    (10.x.y.z). *)

val host_mac : int -> mac
(** [host_mac i] is a conventional simulator MAC for host number [i]. *)

val host_id_of_ip : ipv4 -> int
(** Inverse of {!host_ip} — stands in for ARP resolution in the simulator. *)

(** A TCP connection 4-tuple, usable as a hash-table key. *)
module Four_tuple : sig
  type t = {
    local_ip : ipv4;
    local_port : port;
    peer_ip : ipv4;
    peer_port : port;
  }

  val flip : t -> t
  (** Swap local and peer: the tuple as seen from the other end. *)

  val equal : t -> t -> bool
  val hash : t -> int

  val sym_hash : t -> int
  (** Direction-symmetric flow hash: equal for a tuple and its [flip]. This
      is the hash symmetric receive-side scaling computes, so both
      directions of a connection land on the same NIC queue. *)

  val sym_hash_of : ipv4 -> port -> ipv4 -> port -> int
  (** [sym_hash_of ip_a port_a ip_b port_b] is {!sym_hash} of the tuple
      with those two endpoints, in either order, without building it. *)

  val pp : Format.formatter -> t -> unit
end
