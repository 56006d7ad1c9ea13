type t = {
  eth : Eth_header.t;
  ip : Ipv4_header.t;
  tcp : Tcp_header.t;
  payload : bytes;
  mutable span : int;
  mutable corrupt : bool;
  mutable refs : int;
  mutable pooled : bool;
}

let make ~src_mac ~dst_mac ~src_ip ~dst_ip ?(ecn = Ipv4_header.Ect0) ~tcp
    ~payload () =
  let tcp_size = Tcp_header.size tcp in
  {
    eth =
      { Eth_header.src = src_mac; dst = dst_mac;
        ethertype = Eth_header.ethertype_ipv4 };
    ip =
      {
        Ipv4_header.src = src_ip;
        dst = dst_ip;
        protocol = Ipv4_header.protocol_tcp;
        ttl = 64;
        ecn;
        dscp = 0;
        ident = 0;
        total_length = Ipv4_header.size + tcp_size + Bytes.length payload;
      };
    tcp;
    payload;
    span = -1;
    corrupt = false;
    refs = 1;
    pooled = false;
  }

let placeholder () =
  make ~src_mac:0 ~dst_mac:0 ~src_ip:0 ~dst_ip:0
    ~tcp:
      {
        Tcp_header.src_port = 0;
        dst_port = 0;
        seq = 0;
        ack = 0;
        flags = Tcp_header.no_flags;
        window = 0;
        options = Tcp_header.no_options;
      }
    ~payload:Bytes.empty ()

let wire_size t = Eth_header.size + t.ip.Ipv4_header.total_length
let payload_len t = Bytes.length t.payload

let well_formed t =
  t.ip.Ipv4_header.total_length
  = Ipv4_header.size + Tcp_header.size t.tcp + Bytes.length t.payload
  && t.ip.Ipv4_header.protocol = Ipv4_header.protocol_tcp

let four_tuple_at_receiver t =
  {
    Addr.Four_tuple.local_ip = t.ip.Ipv4_header.dst;
    local_port = t.tcp.Tcp_header.dst_port;
    peer_ip = t.ip.Ipv4_header.src;
    peer_port = t.tcp.Tcp_header.src_port;
  }

let flow_hash t =
  Addr.Four_tuple.sym_hash_of t.ip.Ipv4_header.dst t.tcp.Tcp_header.dst_port
    t.ip.Ipv4_header.src t.tcp.Tcp_header.src_port

let set16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

(* Arithmetic sum of the six pseudo-header 16-bit words — equivalent to
   serializing the 12-byte pseudo header and summing it, without the
   scratch buffer (this runs twice per wire packet). *)
let pseudo_header_sum ip tcp_len =
  ((ip.Ipv4_header.src lsr 16) land 0xffff)
  + (ip.Ipv4_header.src land 0xffff)
  + ((ip.Ipv4_header.dst lsr 16) land 0xffff)
  + (ip.Ipv4_header.dst land 0xffff)
  + ip.Ipv4_header.protocol
  + tcp_len

let to_wire t =
  let total = wire_size t in
  let buf = Bytes.make total '\x00' in
  let off = Eth_header.write t.eth buf ~off:0 in
  let ip_off = off in
  let off = ip_off + Ipv4_header.write t.ip buf ~off:ip_off in
  let tcp_off = off in
  let tcp_size = Tcp_header.write t.tcp buf ~off:tcp_off in
  Bytes.blit t.payload 0 buf (tcp_off + tcp_size) (Bytes.length t.payload);
  let tcp_len = tcp_size + Bytes.length t.payload in
  let acc = pseudo_header_sum t.ip tcp_len in
  let acc = Checksum.ones_complement_sum ~acc buf ~off:tcp_off ~len:tcp_len in
  set16 buf (tcp_off + 16) (Checksum.finish acc);
  buf

let of_wire buf =
  let eth = Eth_header.read buf ~off:0 in
  let ip = Ipv4_header.read buf ~off:Eth_header.size in
  let tcp_off = Eth_header.size + Ipv4_header.size in
  let tcp, tcp_size = Tcp_header.read buf ~off:tcp_off in
  let payload_len =
    ip.Ipv4_header.total_length - Ipv4_header.size - tcp_size
  in
  if payload_len < 0 || tcp_off + tcp_size + payload_len > Bytes.length buf
  then invalid_arg "Packet.of_wire: inconsistent lengths";
  let payload = Bytes.sub buf (tcp_off + tcp_size) payload_len in
  { eth; ip; tcp; payload; span = -1; corrupt = false; refs = 1; pooled = false }

let tcp_checksum_ok buf =
  let tcp_off = Eth_header.size + Ipv4_header.size in
  Bytes.length buf >= tcp_off
  && (Eth_header.read buf ~off:0).Eth_header.ethertype
     = Eth_header.ethertype_ipv4
  && Char.code (Bytes.get buf Eth_header.size) lsr 4 = 4
  &&
  let ip = Ipv4_header.read buf ~off:Eth_header.size in
  let tcp_len = ip.Ipv4_header.total_length - Ipv4_header.size in
  tcp_len >= Tcp_header.min_size
  && tcp_off + tcp_len <= Bytes.length buf
  &&
  let acc = pseudo_header_sum ip tcp_len in
  let acc = Checksum.ones_complement_sum ~acc buf ~off:tcp_off ~len:tcp_len in
  Checksum.finish acc = 0

(* --- Payload-buffer ownership ------------------------------------------ *)

let mark_pooled t = if Bytes.length t.payload > 0 then t.pooled <- true

let retain t = t.refs <- t.refs + 1

let release t =
  t.refs <- t.refs - 1;
  if t.refs = 0 && t.pooled then begin
    (* Detach so a (buggy) second release can never recycle twice. *)
    t.pooled <- false;
    Some t.payload
  end
  else None

let pp fmt t =
  Format.fprintf fmt "%a | %a | %d bytes payload" Ipv4_header.pp t.ip
    Tcp_header.pp t.tcp (Bytes.length t.payload)
