(* Growable byte FIFO: reassembly of received bytes and the unsent tail of
   short sends. *)

type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

let create n = { buf = Bytes.create (max 16 n); off = 0; len = 0 }
let length t = t.len

let add t src off n =
  if t.off + t.len + n > Bytes.length t.buf then begin
    let buf =
      if t.len + n <= Bytes.length t.buf then t.buf
      else Bytes.create (max (2 * Bytes.length t.buf) (t.len + n))
    in
    Bytes.blit t.buf t.off buf 0 t.len;
    t.buf <- buf;
    t.off <- 0
  end;
  Bytes.blit src off t.buf (t.off + t.len) n;
  t.len <- t.len + n

let drop t n =
  t.off <- t.off + n;
  t.len <- t.len - n;
  if t.len = 0 then t.off <- 0

let take t n =
  let b = Bytes.sub t.buf t.off n in
  drop t n;
  b

(* [equal_sub a ao b bo len]: the [len] bytes at [a.(ao)] and [b.(bo)] are
   equal; compares a word at a time. *)
let equal_sub a ao b bo len =
  let rec words i =
    if i + 8 <= len then
      (Bytes.get_int64_ne a (ao + i) : int64) = Bytes.get_int64_ne b (bo + i)
      && words (i + 8)
    else bytes i
  and bytes i =
    i >= len
    || Bytes.unsafe_get a (ao + i) = Bytes.unsafe_get b (bo + i)
       && bytes (i + 1)
  in
  words 0

let has_prefix t b = equal_sub t.buf t.off b 0 (Bytes.length b)
