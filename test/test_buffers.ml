(* Unit and property tests for ring buffers, SPSC queues, and the
   out-of-order interval tracker. *)

module Ring = Tas_buffers.Ring_buffer
module Spsc = Tas_buffers.Spsc_queue
module Ooo = Tas_buffers.Ooo_interval
module Seq32 = Tas_proto.Seq32

(* --- Ring buffer ------------------------------------------------------------ *)

let test_ring_basic () =
  let r = Ring.create 16 in
  Alcotest.(check int) "initially empty" 0 (Ring.used r);
  let n = Ring.push r (Bytes.of_string "hello") ~off:0 ~len:5 in
  Alcotest.(check int) "pushed 5" 5 n;
  Alcotest.(check int) "used 5" 5 (Ring.used r);
  let dst = Bytes.create 5 in
  let m = Ring.pop r ~dst ~dst_off:0 ~len:5 in
  Alcotest.(check int) "popped 5" 5 m;
  Alcotest.(check string) "content" "hello" (Bytes.to_string dst);
  Alcotest.(check int) "empty again" 0 (Ring.used r)

let test_ring_wrap () =
  let r = Ring.create 8 in
  ignore (Ring.push r (Bytes.of_string "abcdef") ~off:0 ~len:6);
  let dst = Bytes.create 4 in
  ignore (Ring.pop r ~dst ~dst_off:0 ~len:4);
  (* Now physically wrapped: push 6 more across the boundary. *)
  let n = Ring.push r (Bytes.of_string "ghijkl") ~off:0 ~len:6 in
  Alcotest.(check int) "pushed 6 across wrap" 6 n;
  let dst = Bytes.create 8 in
  let m = Ring.pop r ~dst ~dst_off:0 ~len:8 in
  Alcotest.(check int) "popped all" 8 m;
  Alcotest.(check string) "wrapped content in order" "efghijkl"
    (Bytes.to_string dst)

let test_ring_partial_push () =
  let r = Ring.create 4 in
  let n = Ring.push r (Bytes.of_string "abcdef") ~off:0 ~len:6 in
  Alcotest.(check int) "accepts only capacity" 4 n;
  Alcotest.(check int) "full" 0 (Ring.free r)

let test_ring_write_at_ooo () =
  (* Out-of-order deposit beyond head, then fill the gap. *)
  let r = Ring.create 16 in
  Ring.write_at r ~pos:4 (Bytes.of_string "heyo") ~off:0 ~len:4;
  Ring.write_at r ~pos:0 (Bytes.of_string "gap!") ~off:0 ~len:4;
  Ring.advance_head r 8;
  let dst = Bytes.create 8 in
  ignore (Ring.pop r ~dst ~dst_off:0 ~len:8);
  Alcotest.(check string) "gap filled in order" "gap!heyo" (Bytes.to_string dst)

let test_ring_bounds_checks () =
  let r = Ring.create 8 in
  Alcotest.(check bool) "write beyond window rejected" true
    (try
       Ring.write_at r ~pos:5 (Bytes.make 8 'x') ~off:0 ~len:8;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "advance_tail beyond head rejected" true
    (try
       Ring.advance_tail r 1;
       false
     with Invalid_argument _ -> true)

let prop_ring_fifo =
  (* Interleaved pushes and pops preserve byte order (reference: Buffer). *)
  QCheck.Test.make ~name:"ring buffer is FIFO under random ops" ~count:200
    QCheck.(list (pair bool (int_range 1 32)))
    (fun ops ->
      let r = Ring.create 64 in
      let reference = Queue.create () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_push, len) ->
          if is_push then begin
            let data =
              Bytes.init len (fun _ ->
                  incr next;
                  Char.chr (!next land 0xff))
            in
            let accepted = Ring.push r data ~off:0 ~len in
            for i = 0 to accepted - 1 do
              Queue.add (Bytes.get data i) reference
            done;
            (* Rewind [next] for bytes not accepted so streams agree. *)
            next := !next - (len - accepted)
          end
          else begin
            let dst = Bytes.create len in
            let got = Ring.pop r ~dst ~dst_off:0 ~len in
            for i = 0 to got - 1 do
              match Queue.take_opt reference with
              | Some c -> if c <> Bytes.get dst i then ok := false
              | None -> ok := false
            done
          end)
        ops;
      !ok && Ring.used r = Queue.length reference)

(* --- Ring buffer: resident backing ---------------------------------------- *)

(* A stream of distinct-ish bytes starting at stream offset [from]. *)
let stream ~from len = Bytes.init len (fun i -> Char.chr ((from + i) * 7 land 0xff))

let pop_string r len =
  let dst = Bytes.create len in
  let n = Ring.pop r ~dst ~dst_off:0 ~len in
  Bytes.sub_string dst 0 n

let test_ring_lazy_backing () =
  let r = Ring.create 65536 in
  Alcotest.(check int) "nothing resident before the first write" 0
    (Ring.resident_bytes r);
  Alcotest.(check int) "logical capacity" 65536 (Ring.capacity r);
  Alcotest.(check int) "free is the logical window" 65536 (Ring.free r);
  ignore (Ring.push r (stream ~from:0 10) ~off:0 ~len:10);
  Alcotest.(check int) "first write backs the 64 B minimum" 64
    (Ring.resident_bytes r);
  Alcotest.(check int) "free unchanged by backing" 65526 (Ring.free r)

let test_ring_growth_clamps () =
  let resident_after cap len =
    let r = Ring.create cap in
    ignore (Ring.push r (stream ~from:0 len) ~off:0 ~len);
    Ring.resident_bytes r
  in
  Alcotest.(check int) "capacity 1" 1 (resident_after 1 1);
  Alcotest.(check int) "clamped below the minimum" 40 (resident_after 40 40);
  Alcotest.(check int) "power of two" 128 (resident_after 100_000 65);
  Alcotest.(check int) "clamped to a non-power-of-two capacity" 100
    (resident_after 100 70);
  Alcotest.(check int) "65535 clamps" 65535 (resident_after 65535 40_000)

let test_ring_growth_across_wrap () =
  (* The live window wraps the physical end of the 64 B backing when the
     ring grows; growth must re-lay it by stream offset. *)
  let r = Ring.create 4096 in
  ignore (Ring.push r (stream ~from:0 40) ~off:0 ~len:40);
  ignore (pop_string r 30);
  ignore (Ring.push r (stream ~from:40 30) ~off:0 ~len:30);
  Alcotest.(check int) "still 64 B, window [30, 70) wraps" 64
    (Ring.resident_bytes r);
  ignore (Ring.push r (stream ~from:70 100) ~off:0 ~len:100);
  Alcotest.(check int) "grown to cover 140 B" 256 (Ring.resident_bytes r);
  Alcotest.(check string) "stream intact in order"
    (Bytes.to_string (stream ~from:30 140))
    (pop_string r 140)

let test_ring_growth_keeps_ooo () =
  (* Out-of-order bytes beyond [head] and unacknowledged bytes below it
     survive growth at their stream offsets. *)
  let r = Ring.create 4096 in
  ignore (Ring.push r (stream ~from:0 10) ~off:0 ~len:10);
  Ring.write_at r ~pos:50 (stream ~from:50 10) ~off:0 ~len:10;
  Ring.write_at r ~pos:300 (stream ~from:300 20) ~off:0 ~len:20;
  Alcotest.(check int) "grown to cover [0, 320)" 512 (Ring.resident_bytes r);
  let dst = Bytes.create 10 in
  Ring.read_at r ~pos:0 ~dst ~dst_off:0 ~len:10;
  Alcotest.(check string) "unacknowledged bytes re-readable"
    (Bytes.to_string (stream ~from:0 10)) (Bytes.to_string dst);
  Ring.read_at r ~pos:50 ~dst ~dst_off:0 ~len:10;
  Alcotest.(check string) "out-of-order bytes kept"
    (Bytes.to_string (stream ~from:50 10)) (Bytes.to_string dst);
  Ring.write_at r ~pos:10 (stream ~from:10 40) ~off:0 ~len:40;
  Ring.write_at r ~pos:60 (stream ~from:60 240) ~off:0 ~len:240;
  Ring.advance_head r 310;
  Alcotest.(check string) "gaps filled, stream in order"
    (Bytes.to_string (stream ~from:0 320))
    (pop_string r 320)

let test_ring_create_contract () =
  List.iter
    (fun cap ->
      Alcotest.(check bool) (Printf.sprintf "create %d rejected" cap) true
        (try
           ignore (Ring.create cap);
           false
         with Invalid_argument _ -> true))
    [ 0; -1 ]

(* Random operation sequences against a flat reference stream: a table of
   the bytes deposited at each stream offset, plus the model's head and
   tail. Positions are drawn relative to the model's tail or head so that
   in-window, out-of-order and out-of-window accesses all occur. *)
type anchor = From_tail | From_head

type ring_op =
  | Push of int
  | Write_at of anchor * int * int
  | Advance_head of int
  | Read_at of anchor * int * int
  | Pop of int
  | Advance_tail of int

let show_ring_op = function
  | Push n -> Printf.sprintf "push %d" n
  | Write_at (a, d, n) ->
    Printf.sprintf "write_at %s%+d len %d"
      (if a = From_tail then "tail" else "head") d n
  | Advance_head n -> Printf.sprintf "advance_head %d" n
  | Read_at (a, d, n) ->
    Printf.sprintf "read_at %s%+d len %d"
      (if a = From_tail then "tail" else "head") d n
  | Pop n -> Printf.sprintf "pop %d" n
  | Advance_tail n -> Printf.sprintf "advance_tail %d" n

let ring_ops_arb =
  let open QCheck.Gen in
  let gen =
    oneofl [ 1; 64; 4096; 65535 ] >>= fun cap ->
    (* Mostly packet-sized lengths, sometimes up to (and past) capacity,
       and occasionally negative to reach the argument checks. *)
    let len =
      frequency
        [ (6, int_range 0 (min cap 200)); (2, int_range 0 (cap + 2));
          (1, int_range (-2) 0) ]
    in
    let anchor = oneofl [ From_tail; From_head ] in
    let delta = frequency [ (4, int_range (-3) 300); (1, int_range (-3) (cap + 3)) ] in
    let op =
      frequency
        [
          (3, map (fun n -> Push (abs n)) len);
          (3, map3 (fun a d n -> Write_at (a, d, n)) anchor delta len);
          (2, map (fun n -> Advance_head n) len);
          (2, map3 (fun a d n -> Read_at (a, d, n)) anchor delta len);
          (2, map (fun n -> Pop (abs n)) len);
          (2, map (fun n -> Advance_tail n) len);
        ]
    in
    map (fun ops -> (cap, ops)) (list_size (int_range 1 60) op)
  in
  QCheck.make gen ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map show_ring_op ops)))

let prop_ring_reference_model =
  QCheck.Test.make ~name:"ring buffer matches a flat reference stream"
    ~count:400 ring_ops_arb (fun (cap, ops) ->
      let r = Ring.create cap in
      let written = Hashtbl.create 64 in
      let head = ref 0 and tail = ref 0 and extent = ref 0 in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      let touch stop = extent := max !extent (stop - !tail) in
      let check_bytes what pos (b : bytes) len =
        for i = 0 to len - 1 do
          match Hashtbl.find_opt written (pos + i) with
          | Some c when c <> Bytes.get b i ->
            fail "%s: byte at stream offset %d differs" what (pos + i)
          | _ -> ()
        done
      in
      let deposit pos (b : bytes) len =
        for i = 0 to len - 1 do
          Hashtbl.replace written (pos + i) (Bytes.get b i)
        done
      in
      (* [expect_invalid] ops must raise Invalid_argument and change
         nothing; the others must not raise. *)
      let guarded what ~expect_invalid f =
        let before = (Ring.head r, Ring.tail r, Ring.resident_bytes r) in
        match f () with
        | () ->
          if expect_invalid then
            fail "%s: accepted, expected Invalid_argument" what
        | exception Invalid_argument _ ->
          if not expect_invalid then fail "%s: unexpected Invalid_argument" what
          else if (Ring.head r, Ring.tail r, Ring.resident_bytes r) <> before then
            fail "%s: state changed on rejection" what
      in
      let outside pos len = pos < !tail || pos + len > !tail + cap in
      let pos_of = function From_tail -> ( + ) !tail | From_head -> ( + ) !head in
      List.iter
        (fun op ->
          let what = show_ring_op op in
          (match op with
          | Push len ->
            let src = stream ~from:!head len in
            let n = Ring.push r src ~off:0 ~len in
            let want = min len (cap - (!head - !tail)) in
            if n <> want then fail "%s: accepted %d, want %d" what n want;
            if n > 0 then begin
              touch (!head + n);
              deposit !head src n;
              head := !head + n
            end
          | Write_at (a, d, len) ->
            let pos = pos_of a d in
            let src = stream ~from:pos (max 0 len) in
            guarded what ~expect_invalid:(outside pos len || len < 0) (fun () ->
                Ring.write_at r ~pos src ~off:0 ~len);
            if not (outside pos len) && len > 0 then begin
              touch (pos + len);
              deposit pos src len
            end
          | Advance_head n ->
            let invalid = n < 0 || !head + n > !tail + cap in
            guarded what ~expect_invalid:invalid (fun () -> Ring.advance_head r n);
            if not invalid then head := !head + n
          | Read_at (a, d, len) ->
            let pos = pos_of a d in
            let dst = Bytes.create (max 0 len) in
            guarded what ~expect_invalid:(outside pos len || len < 0) (fun () ->
                Ring.read_at r ~pos ~dst ~dst_off:0 ~len);
            if not (outside pos len) && len > 0 then begin
              touch (pos + len);
              check_bytes what pos dst len
            end
          | Pop len ->
            let dst = Bytes.create len in
            let n = Ring.pop r ~dst ~dst_off:0 ~len in
            let want = min len (!head - !tail) in
            if n <> want then fail "%s: popped %d, want %d" what n want;
            if n > 0 then begin
              touch (!tail + n);
              check_bytes what !tail dst n;
              tail := !tail + n
            end
          | Advance_tail n ->
            let invalid = n < 0 || n > !head - !tail in
            guarded what ~expect_invalid:invalid (fun () -> Ring.advance_tail r n);
            if not invalid then tail := !tail + n);
          if (Ring.head r, Ring.tail r) <> (!head, !tail) then
            fail "%s: head/tail (%d, %d), want (%d, %d)" what
                      (Ring.head r) (Ring.tail r) !head !tail;
          if Ring.capacity r <> cap || Ring.used r <> !head - !tail
             || Ring.free r <> cap - (!head - !tail)
          then fail "%s: capacity/used/free drifted" what;
          let resident = Ring.resident_bytes r in
          let bound = min cap (max 64 (2 * !extent)) in
          if !extent = 0 && resident <> 0 then
            fail "%s: %d B resident before any access" what resident;
          if resident > bound || resident < min cap !extent then
            fail "%s: %d B resident outside [%d, %d]" what resident
                      (min cap !extent) bound)
        ops;
      true)

(* --- SPSC queue ------------------------------------------------------------- *)

let test_spsc_fifo () =
  let q = Spsc.create 4 in
  Alcotest.(check bool) "push 1" true (Spsc.try_push q 1);
  Alcotest.(check bool) "push 2" true (Spsc.try_push q 2);
  Alcotest.(check (option int)) "peek" (Some 1) (Spsc.peek q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Spsc.try_pop q);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Spsc.try_pop q);
  Alcotest.(check (option int)) "empty" None (Spsc.try_pop q)

let test_spsc_full () =
  let q = Spsc.create 2 in
  Alcotest.(check bool) "push a" true (Spsc.try_push q 'a');
  Alcotest.(check bool) "push b" true (Spsc.try_push q 'b');
  Alcotest.(check bool) "full rejects" false (Spsc.try_push q 'c');
  ignore (Spsc.try_pop q);
  Alcotest.(check bool) "slot freed" true (Spsc.try_push q 'c')

let test_spsc_drain () =
  let q = Spsc.create 8 in
  List.iter (fun x -> ignore (Spsc.try_push q x)) [ 1; 2; 3; 4; 5 ];
  let acc = ref [] in
  let n = Spsc.drain q (fun x -> acc := x :: !acc) in
  Alcotest.(check int) "drained all" 5 n;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !acc)

let prop_spsc_conservation =
  QCheck.Test.make ~name:"spsc: pops = accepted pushes, in order" ~count:200
    QCheck.(list (option (int_bound 1000)))
    (fun ops ->
      (* Some x = push x, None = pop. *)
      let q = Spsc.create 8 in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
            let pushed = Spsc.try_push q x in
            if pushed then Queue.add x model;
            Spsc.length q = Queue.length model
          | None -> (
            match (Spsc.try_pop q, Queue.take_opt model) with
            | Some a, Some b -> a = b
            | None, None -> true
            | _ -> false))
        ops)

(* --- Out-of-order interval --------------------------------------------------- *)

let test_ooo_in_order () =
  let o = Ooo.create () in
  match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1000 ~seg_len:100 with
  | Ooo.Deliver { write_at; write_len; advance } ->
    Alcotest.(check int) "write at exp" 1000 write_at;
    Alcotest.(check int) "full segment" 100 write_len;
    Alcotest.(check int) "advance" 100 advance;
    Alcotest.(check bool) "no interval stored" true (Ooo.is_empty o)
  | _ -> Alcotest.fail "expected Deliver"

let test_ooo_store_and_merge () =
  let o = Ooo.create () in
  (* Segment beyond the expected seq: stored. *)
  (match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1100 ~seg_len:100 with
  | Ooo.Store { write_at; write_len } ->
    Alcotest.(check int) "stored at" 1100 write_at;
    Alcotest.(check int) "stored len" 100 write_len
  | _ -> Alcotest.fail "expected Store");
  (* Adjacent extension. *)
  (match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1200 ~seg_len:50 with
  | Ooo.Store _ -> ()
  | _ -> Alcotest.fail "expected Store for adjacent extension");
  Alcotest.(check (option (pair int int))) "interval grew"
    (Some (1100, 150)) (Ooo.interval o);
  (* Gap fill: delivers through the stored interval. *)
  match Ooo.handle o ~exp:1000 ~window:4096 ~seg_start:1000 ~seg_len:100 with
  | Ooo.Deliver { advance; _ } ->
    Alcotest.(check int) "advance covers merged interval" 250 advance;
    Alcotest.(check bool) "interval consumed" true (Ooo.is_empty o)
  | _ -> Alcotest.fail "expected Deliver"

let test_ooo_second_interval_dropped () =
  let o = Ooo.create () in
  ignore (Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1000 ~seg_len:100);
  (* A segment in a *different* hole is dropped (single-interval limit). *)
  match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:5000 ~seg_len:100 with
  | Ooo.Drop -> ()
  | _ -> Alcotest.fail "expected Drop for disjoint second interval"

let test_ooo_duplicate () =
  let o = Ooo.create () in
  match Ooo.handle o ~exp:500 ~window:4096 ~seg_start:100 ~seg_len:200 with
  | Ooo.Duplicate -> ()
  | _ -> Alcotest.fail "expected Duplicate for fully-old segment"

let test_ooo_window_clip () =
  let o = Ooo.create () in
  (* Only 50 bytes of window: in-order segment clipped. *)
  (match Ooo.handle o ~exp:0 ~window:50 ~seg_start:0 ~seg_len:100 with
  | Ooo.Deliver { write_len; advance; _ } ->
    Alcotest.(check int) "clipped to window" 50 write_len;
    Alcotest.(check int) "advance clipped" 50 advance
  | _ -> Alcotest.fail "expected clipped Deliver");
  (* Beyond-window OOO segment dropped outright. *)
  let o = Ooo.create () in
  match Ooo.handle o ~exp:0 ~window:50 ~seg_start:60 ~seg_len:10 with
  | Ooo.Drop -> ()
  | _ -> Alcotest.fail "expected Drop beyond window"

let test_ooo_partial_overlap_trim () =
  let o = Ooo.create () in
  (* Partially old: the prefix below exp must be trimmed. *)
  match Ooo.handle o ~exp:100 ~window:4096 ~seg_start:50 ~seg_len:100 with
  | Ooo.Deliver { write_at; write_len; advance } ->
    Alcotest.(check int) "trimmed to exp" 100 write_at;
    Alcotest.(check int) "only fresh bytes" 50 write_len;
    Alcotest.(check int) "advance" 50 advance
  | _ -> Alcotest.fail "expected trimmed Deliver"

(* --- Multi-range OOO (the SACK receiver configuration) ----------------- *)

let test_ooo_multi_disjoint_holes () =
  let o = Ooo.create ~max_ranges:4 () in
  (* Three disjoint holes all stored. *)
  List.iter
    (fun (s, l) ->
      match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:s ~seg_len:l with
      | Ooo.Store _ -> ()
      | _ -> Alcotest.failf "expected Store at %d" s)
    [ (1000, 100); (3000, 100); (5000, 100) ];
  Alcotest.(check (list (pair int int)))
    "ranges ascending"
    [ (1000, 100); (3000, 100); (5000, 100) ]
    (Ooo.ranges o);
  Alcotest.(check (option (pair int int)))
    "interval is the lowest range" (Some (1000, 100)) (Ooo.interval o);
  (* SACK blocks: most recently touched first, as (start, end). *)
  Alcotest.(check (list (pair int int)))
    "sack order most-recent-first"
    [ (5000, 5100); (3000, 3100); (1000, 1100) ]
    (Ooo.sack_blocks o ~limit:3);
  Alcotest.(check int) "sack limit respected" 2
    (List.length (Ooo.sack_blocks o ~limit:2))

let test_ooo_adjacent_coalescing_across_ranges () =
  let o = Ooo.create ~max_ranges:4 () in
  ignore (Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1000 ~seg_len:100);
  ignore (Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1200 ~seg_len:100);
  (* The middle segment abuts both neighbours: one fused range remains. *)
  (match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:1100 ~seg_len:100 with
  | Ooo.Store _ -> ()
  | _ -> Alcotest.fail "expected Store for bridging segment");
  Alcotest.(check (list (pair int int)))
    "bridged into one range" [ (1000, 300) ] (Ooo.ranges o);
  (* Gap fill delivers the whole fused run in one advance. *)
  match Ooo.handle o ~exp:0 ~window:65536 ~seg_start:0 ~seg_len:1000 with
  | Ooo.Deliver { advance; _ } ->
    Alcotest.(check int) "advance through fused range" 1300 advance;
    Alcotest.(check bool) "all consumed" true (Ooo.is_empty o)
  | _ -> Alcotest.fail "expected Deliver"

let test_ooo_seq_wraparound () =
  let open Tas_proto in
  let exp = Seq32.of_int 0xFFFF_FF80 in
  (* 128 bytes below the wrap point. *)
  let o = Ooo.create ~max_ranges:4 () in
  (* A hole that straddles 2^32: starts below the wrap, ends above it. *)
  let s1 = Seq32.add exp 256 in
  (* 0xFFFF_FF80 + 256 wraps to 0x80 *)
  (match Ooo.handle o ~exp ~window:65536 ~seg_start:s1 ~seg_len:512 with
  | Ooo.Store { write_at; write_len } ->
    Alcotest.(check int) "stored across wrap" (Seq32.add exp 256) write_at;
    Alcotest.(check int) "full length kept" 512 write_len
  | _ -> Alcotest.fail "expected Store across the wrap");
  (* Extend it with a segment entirely past the wrap point. *)
  (match
     Ooo.handle o ~exp ~window:65536 ~seg_start:(Seq32.add exp 768) ~seg_len:64
   with
  | Ooo.Store _ -> ()
  | _ -> Alcotest.fail "expected adjacent Store past the wrap");
  Alcotest.(check (list (pair int int)))
    "one range spanning the wrap"
    [ (Seq32.add exp 256, 576) ]
    (Ooo.ranges o);
  (* Filling the gap delivers through the wrap in one go. *)
  match Ooo.handle o ~exp ~window:65536 ~seg_start:exp ~seg_len:256 with
  | Ooo.Deliver { write_at; advance; _ } ->
    Alcotest.(check int) "write at pre-wrap exp" exp write_at;
    Alcotest.(check int) "advance through wrapped range" 832 advance
  | _ -> Alcotest.fail "expected Deliver through the wrap"

let test_ooo_eviction_at_capacity () =
  let o = Ooo.create ~max_ranges:2 () in
  ignore (Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:10_000 ~seg_len:100);
  ignore (Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:50_000 ~seg_len:100);
  (* Table full. A *closer* hole evicts the range furthest from exp. *)
  (match Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:2_000 ~seg_len:100 with
  | Ooo.Store _ -> ()
  | _ -> Alcotest.fail "expected Store with eviction");
  Alcotest.(check (list (pair int int)))
    "furthest range evicted"
    [ (2_000, 100); (10_000, 100) ]
    (Ooo.ranges o);
  (* A *further* hole than everything tracked is dropped, not stored. *)
  match Ooo.handle o ~exp:0 ~window:1_000_000 ~seg_start:90_000 ~seg_len:100 with
  | Ooo.Drop -> ()
  | _ -> Alcotest.fail "expected Drop for furthest new hole at capacity"

(* Property: a random segment arrival sequence through the OOO tracker always
   delivers a prefix of the stream, never duplicates or reorders delivered
   bytes, and advance >= write_len only when merging. *)
let prop_ooo_stream_consistency =
  QCheck.Test.make
    ~name:"ooo: delivered stream advances monotonically and within bounds"
    ~count:300
    QCheck.(list (pair (int_bound 2000) (int_range 1 300)))
    (fun segs ->
      let o = Ooo.create () in
      let exp = ref 0 in
      let window = 1024 in
      List.for_all
        (fun (start, len) ->
          match
            Ooo.handle o ~exp:!exp ~window ~seg_start:(Seq32.of_int start)
              ~seg_len:len
          with
          | Ooo.Deliver { write_at; write_len; advance } ->
            let ok =
              write_at = !exp && write_len <= len && advance >= write_len
              && advance <= window
            in
            exp := Seq32.add !exp advance;
            ok
          | Ooo.Store { write_at; write_len } ->
            Seq32.gt write_at !exp && write_len > 0
            && Seq32.diff write_at !exp + write_len <= window
          | Ooo.Duplicate | Ooo.Drop -> true)
        segs)

let suite =
  [
    Alcotest.test_case "ring basic" `Quick test_ring_basic;
    Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
    Alcotest.test_case "ring partial push" `Quick test_ring_partial_push;
    Alcotest.test_case "ring out-of-order deposit" `Quick test_ring_write_at_ooo;
    Alcotest.test_case "ring bounds checks" `Quick test_ring_bounds_checks;
    Alcotest.test_case "ring backing is lazy" `Quick test_ring_lazy_backing;
    Alcotest.test_case "ring backing clamps" `Quick test_ring_growth_clamps;
    Alcotest.test_case "ring grows across the wrap" `Quick
      test_ring_growth_across_wrap;
    Alcotest.test_case "ring growth keeps out-of-order bytes" `Quick
      test_ring_growth_keeps_ooo;
    Alcotest.test_case "ring create contract" `Quick test_ring_create_contract;
    Alcotest.test_case "spsc fifo" `Quick test_spsc_fifo;
    Alcotest.test_case "spsc full" `Quick test_spsc_full;
    Alcotest.test_case "spsc drain" `Quick test_spsc_drain;
    Alcotest.test_case "ooo in-order" `Quick test_ooo_in_order;
    Alcotest.test_case "ooo store and merge" `Quick test_ooo_store_and_merge;
    Alcotest.test_case "ooo single-interval limit" `Quick
      test_ooo_second_interval_dropped;
    Alcotest.test_case "ooo duplicate" `Quick test_ooo_duplicate;
    Alcotest.test_case "ooo window clipping" `Quick test_ooo_window_clip;
    Alcotest.test_case "ooo partial overlap trim" `Quick
      test_ooo_partial_overlap_trim;
    Alcotest.test_case "ooo multi-range disjoint holes" `Quick
      test_ooo_multi_disjoint_holes;
    Alcotest.test_case "ooo adjacent coalescing across ranges" `Quick
      test_ooo_adjacent_coalescing_across_ranges;
    Alcotest.test_case "ooo 2^32 sequence wraparound" `Quick
      test_ooo_seq_wraparound;
    Alcotest.test_case "ooo eviction at capacity" `Quick
      test_ooo_eviction_at_capacity;
    QCheck_alcotest.to_alcotest prop_ring_fifo;
    QCheck_alcotest.to_alcotest prop_ring_reference_model;
    QCheck_alcotest.to_alcotest prop_spsc_conservation;
    QCheck_alcotest.to_alcotest prop_ooo_stream_consistency;
  ]
