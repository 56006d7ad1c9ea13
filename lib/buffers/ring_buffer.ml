(* The logical capacity [cap] is the modelled window; [data] is the resident
   backing, grown on demand to cover the live window [tail, end) of every
   access. Stream offset [pos] lives at physical index [pos mod size]. *)
type t = {
  mutable data : bytes;
  cap : int;
  mutable head : int;
  mutable tail : int;
}

let min_backing = 64

let create cap =
  if cap <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { data = Bytes.empty; cap; head = 0; tail = 0 }

let capacity t = t.cap
let head t = t.head
let tail t = t.tail
let used t = t.head - t.tail
let free t = t.cap - used t
let resident_bytes t = Bytes.length t.data

(* Grow the backing (powers of two, at least [min_backing], clamped to
   [cap]) until it covers stream offsets [tail, stop). The old window
   [tail, tail + old) is re-laid by stream offset, so out-of-order bytes
   beyond [head] and unacknowledged transmit data stay addressable. *)
let grow t stop =
  let need = stop - t.tail in
  let size = ref min_backing in
  while !size < need do
    size := 2 * !size
  done;
  let size = Int.min !size t.cap in
  let old = t.data in
  let osize = Bytes.length old in
  let data = Bytes.make size '\000' in
  let pos = ref t.tail and left = ref osize in
  while !left > 0 do
    let op = !pos mod osize and np = !pos mod size in
    let n = Int.min !left (Int.min (osize - op) (size - np)) in
    Bytes.blit old op data np n;
    pos := !pos + n;
    left := !left - n
  done;
  t.data <- data

(* Make stream offsets [tail, stop) physically backed. *)
let[@inline] ensure t stop =
  if stop - t.tail > Bytes.length t.data then grow t stop

(* Copy [len > 0] bytes between a stream-offset position in the ring and a
   flat buffer, backing the range first and splitting at the physical wrap
   point. *)
let blit_in t pos src off len =
  ensure t (pos + len);
  let size = Bytes.length t.data in
  let phys = pos mod size in
  let first = Int.min len (size - phys) in
  Bytes.blit src off t.data phys first;
  if len > first then Bytes.blit src (off + first) t.data 0 (len - first)

let blit_out t pos dst off len =
  ensure t (pos + len);
  let size = Bytes.length t.data in
  let phys = pos mod size in
  let first = Int.min len (size - phys) in
  Bytes.blit t.data phys dst off first;
  if len > first then Bytes.blit t.data 0 dst (off + first) (len - first)

let push t b ~off ~len =
  let n = Int.min len (free t) in
  if n > 0 then begin
    blit_in t t.head b off n;
    t.head <- t.head + n
  end;
  n

let write_at t ~pos b ~off ~len =
  if pos < t.tail || pos + len > t.tail + t.cap then
    invalid_arg "Ring_buffer.write_at: range outside buffer window";
  if len > 0 then blit_in t pos b off len
  else
    (* Touches no backing; keeps [Bytes.blit]'s check of [off] and [len]. *)
    Bytes.blit b off t.data 0 len

let advance_head t n =
  if n < 0 || t.head + n > t.tail + t.cap then
    invalid_arg "Ring_buffer.advance_head: beyond capacity";
  t.head <- t.head + n

let read_at t ~pos ~dst ~dst_off ~len =
  if pos < t.tail || pos + len > t.tail + t.cap then
    invalid_arg "Ring_buffer.read_at: range outside buffer window";
  if len > 0 then blit_out t pos dst dst_off len
  else Bytes.blit t.data 0 dst dst_off len

let pop t ~dst ~dst_off ~len =
  let n = Int.min len (used t) in
  if n > 0 then begin
    blit_out t t.tail dst dst_off n;
    t.tail <- t.tail + n
  end;
  n

let advance_tail t n =
  if n < 0 || n > used t then invalid_arg "Ring_buffer.advance_tail: beyond head";
  t.tail <- t.tail + n
