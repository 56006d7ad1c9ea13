type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  psh : bool;
  ece : bool;
  cwr : bool;
}

type options = {
  mss : int option;
  wscale : int option;
  timestamp : (int * int) option;
  sack : (Seq32.t * Seq32.t) list;
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

let no_flags =
  { syn = false; ack = false; fin = false; rst = false; psh = false;
    ece = false; cwr = false }

let no_options = { mss = None; wscale = None; timestamp = None; sack = [] }
let data_flags = { no_flags with ack = true; psh = true }
let ack_flags = { no_flags with ack = true }

let options_size opts =
  let n =
    (match opts.mss with Some _ -> 4 | None -> 0)
    + (match opts.wscale with Some _ -> 3 | None -> 0)
    + (match opts.timestamp with Some _ -> 10 | None -> 0)
    + (match opts.sack with [] -> 0 | bs -> 2 + (8 * List.length bs))
  in
  (* Pad to a 4-byte boundary with NOPs. *)
  (n + 3) / 4 * 4

let min_size = 20
let size t = min_size + options_size t.options

let set16 buf off v =
  Bytes.set buf off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set buf (off + 1) (Char.chr (v land 0xff))

let get16 buf off =
  (Char.code (Bytes.get buf off) lsl 8) lor Char.code (Bytes.get buf (off + 1))

let set32 buf off v =
  set16 buf off ((v lsr 16) land 0xffff);
  set16 buf (off + 2) (v land 0xffff)

let get32 buf off = (get16 buf off lsl 16) lor get16 buf (off + 2)

let flags_to_bits f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor (if f.ack then 16 else 0)
  lor (if f.ece then 64 else 0)
  lor if f.cwr then 128 else 0

let flags_of_bits b =
  {
    fin = b land 1 <> 0;
    syn = b land 2 <> 0;
    rst = b land 4 <> 0;
    psh = b land 8 <> 0;
    ack = b land 16 <> 0;
    ece = b land 64 <> 0;
    cwr = b land 128 <> 0;
  }

let write t buf ~off =
  let hdr_size = size t in
  set16 buf off t.src_port;
  set16 buf (off + 2) t.dst_port;
  set32 buf (off + 4) t.seq;
  set32 buf (off + 8) t.ack;
  Bytes.set buf (off + 12) (Char.chr ((hdr_size / 4) lsl 4));
  Bytes.set buf (off + 13) (Char.chr (flags_to_bits t.flags));
  set16 buf (off + 14) t.window;
  set16 buf (off + 16) 0 (* checksum: filled by Packet.to_wire *);
  set16 buf (off + 18) 0 (* urgent pointer unused *);
  let p = ref (off + 20) in
  (match t.options.mss with
  | Some mss ->
    Bytes.set buf !p '\x02';
    Bytes.set buf (!p + 1) '\x04';
    set16 buf (!p + 2) mss;
    p := !p + 4
  | None -> ());
  (match t.options.wscale with
  | Some ws ->
    Bytes.set buf !p '\x03';
    Bytes.set buf (!p + 1) '\x03';
    Bytes.set buf (!p + 2) (Char.chr (ws land 0xff));
    p := !p + 3
  | None -> ());
  (match t.options.timestamp with
  | Some (ts_val, ts_ecr) ->
    Bytes.set buf !p '\x08';
    Bytes.set buf (!p + 1) '\x0a';
    set32 buf (!p + 2) (ts_val land 0xFFFF_FFFF);
    set32 buf (!p + 6) (ts_ecr land 0xFFFF_FFFF);
    p := !p + 10
  | None -> ());
  (match t.options.sack with
  | [] -> ()
  | blocks ->
    Bytes.set buf !p '\x05';
    Bytes.set buf (!p + 1) (Char.chr (2 + (8 * List.length blocks)));
    p := !p + 2;
    List.iter
      (fun (bs, be) ->
        set32 buf !p (bs land 0xFFFF_FFFF);
        set32 buf (!p + 4) (be land 0xFFFF_FFFF);
        p := !p + 8)
      blocks);
  while !p < off + hdr_size do
    Bytes.set buf !p '\x01' (* NOP padding *);
    incr p
  done;
  hdr_size

let read buf ~off =
  if Bytes.length buf - off < 20 then invalid_arg "Tcp_header.read: short buffer";
  let data_off = (Char.code (Bytes.get buf (off + 12)) lsr 4) * 4 in
  if data_off < 20 || Bytes.length buf - off < data_off then
    invalid_arg "Tcp_header.read: bad data offset";
  let opts = ref no_options in
  let p = ref (off + 20) in
  let last = off + data_off in
  (try
     while !p < last do
       match Char.code (Bytes.get buf !p) with
       | 0 -> raise Exit (* end of options *)
       | 1 -> incr p (* NOP *)
       | kind ->
         let len = Char.code (Bytes.get buf (!p + 1)) in
         if len < 2 || !p + len > last then
           invalid_arg "Tcp_header.read: corrupt option";
         (match kind with
         | 2 when len = 4 -> opts := { !opts with mss = Some (get16 buf (!p + 2)) }
         | 3 when len = 3 ->
           opts := { !opts with wscale = Some (Char.code (Bytes.get buf (!p + 2))) }
         | 8 when len = 10 ->
           opts :=
             { !opts with
               timestamp = Some (get32 buf (!p + 2), get32 buf (!p + 6)) }
         | 5 when len >= 10 && (len - 2) mod 8 = 0 ->
           let n = (len - 2) / 8 in
           let blocks =
             List.init n (fun i ->
                 (get32 buf (!p + 2 + (8 * i)), get32 buf (!p + 6 + (8 * i))))
           in
           opts := { !opts with sack = blocks }
         | _ -> () (* unknown option: skipped *));
         p := !p + len
     done
   with Exit -> ());
  ( {
      src_port = get16 buf off;
      dst_port = get16 buf (off + 2);
      seq = get32 buf (off + 4);
      ack = get32 buf (off + 8);
      flags = flags_of_bits (Char.code (Bytes.get buf (off + 13)));
      window = get16 buf (off + 14);
      options = !opts;
    },
    data_off )

let pp fmt t =
  let f = t.flags in
  let flag_str =
    String.concat ""
      [
        (if f.syn then "S" else "");
        (if f.ack then "A" else "");
        (if f.fin then "F" else "");
        (if f.rst then "R" else "");
        (if f.psh then "P" else "");
        (if f.ece then "E" else "");
        (if f.cwr then "C" else "");
      ]
  in
  Format.fprintf fmt "tcp %d->%d seq=%a ack=%a [%s] win=%d" t.src_port
    t.dst_port Seq32.pp t.seq Seq32.pp t.ack flag_str t.window
