(* One contiguous off-heap allocation, [capacity * slot_bytes] bytes. A
   [char] bigarray is a bigstring, so {!Flow_state} reads and writes its
   fields with the 16/32-bit bigstring primitives. *)

type bytes_arr =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let slot_bytes = 102

type t = {
  data : bytes_arr;
  capacity : int;
  free_list : int array;  (* stack of free slot indices *)
  mutable free_top : int;  (* number of entries on the stack *)
  used : Bytes.t;  (* per-slot liveness bit, double-free detection *)
  detached : bool;  (* made by [detach]: holds one torn-down flow's record *)
}

let make ~detached capacity =
  let data =
    Bigarray.Array1.create Bigarray.char Bigarray.c_layout
      (capacity * slot_bytes)
  in
  Bigarray.Array1.fill data '\x00';
  (* Stack initialized so the first allocations come out in slot order. *)
  let free_list = Array.init capacity (fun i -> capacity - 1 - i) in
  { data; capacity; free_list; free_top = capacity;
    used = Bytes.make capacity '\x00'; detached }

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Flow_arena.create: capacity must be > 0";
  make ~detached:false capacity

let capacity t = t.capacity
let detached t = t.detached
let live t = t.capacity - t.free_top
let available t = t.free_top
let in_use t slot =
  slot >= 0 && slot < t.capacity && Bytes.get t.used slot = '\x01'

(* --- Raw field access --------------------------------------------------- *)

(* Little-endian, [width] bytes. An OCaml int has 63 bits, so byte 7 of an
   8-byte field carries bits 56-62. *)
let read t slot ~off ~width =
  let b = (slot * slot_bytes) + off in
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bigarray.Array1.unsafe_get t.data (b + i))
  done;
  !v

let write t slot ~off ~width v =
  let b = (slot * slot_bytes) + off in
  for i = 0 to width - 1 do
    Bigarray.Array1.unsafe_set t.data (b + i)
      (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

(* --- Table-3 layout ----------------------------------------------------- *)

let off_generation = 78

let field_layout =
  [
    ("opaque", 0, 8);
    ("seq", 8, 4);
    ("ack", 12, 4);
    ("tx_sent", 16, 4);
    ("window", 20, 4);
    ("cnt_ackb", 24, 4);
    ("cnt_ecnb", 28, 4);
    ("rtt_est", 32, 4);
    ("ts_recent", 36, 4);
    ("tx_span", 40, 4);
    ("rx_span", 44, 4);
    ("ooo_start", 48, 4);
    ("ooo_len", 52, 4);
    ("peer_ip", 56, 4);
    ("local_port", 60, 2);
    ("peer_port", 62, 2);
    ("context", 64, 2);
    ("dupack_cnt", 66, 2);
    ("cnt_frexmits", 68, 2);
    ("peer_mac", 70, 6);
    ("peer_wscale", 76, 1);
    ("flags", 77, 1);
    ("generation", off_generation, 2);
    ("rx_head", 80, 4);
    ("rx_tail", 84, 4);
    ("tx_head", 88, 4);
    ("tx_tail", 92, 4);
    ("rx_size", 96, 3);
    ("tx_size", 99, 3);
  ]

(* --- Allocation --------------------------------------------------------- *)

let generation t slot =
  if slot < 0 || slot >= t.capacity then
    invalid_arg "Flow_arena.generation: slot out of range";
  read t slot ~off:off_generation ~width:2

let alloc t =
  if t.free_top = 0 then None
  else begin
    t.free_top <- t.free_top - 1;
    let slot = t.free_list.(t.free_top) in
    Bytes.set t.used slot '\x01';
    (* Zero everything but the generation counter, which survives reuse. *)
    let gen = generation t slot in
    Bigarray.Array1.fill
      (Bigarray.Array1.sub t.data (slot * slot_bytes) slot_bytes) '\x00';
    write t slot ~off:off_generation ~width:2 gen;
    Some slot
  end

let free t slot =
  if slot < 0 || slot >= t.capacity then
    invalid_arg "Flow_arena.free: slot out of range";
  if Bytes.get t.used slot <> '\x01' then
    invalid_arg "Flow_arena.free: double free";
  Bytes.set t.used slot '\x00';
  write t slot ~off:off_generation ~width:2 (generation t slot + 1);
  t.free_list.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* The copy keeps the slot's generation; the source slot is freed (and its
   generation bumped) as usual, so nothing left pointing at the shared slab
   survives the move. *)
let detach t slot =
  if not (in_use t slot) then invalid_arg "Flow_arena.detach: slot not in use";
  let d = make ~detached:true 1 in
  ignore (alloc d);
  Bigarray.Array1.blit
    (Bigarray.Array1.sub t.data (slot * slot_bytes) slot_bytes)
    (Bigarray.Array1.sub d.data 0 slot_bytes);
  free t slot;
  d
