module Seq32 = Tas_proto.Seq32

type range = {
  mutable r_start : Seq32.t;
  mutable r_len : int;
  mutable r_touch : int;  (* stamp of the last update; SACK block order *)
}

type t = {
  mutable ranges : range list;
      (* ascending sequence order, pairwise disjoint and non-adjacent *)
  max_ranges : int;
  mutable stamp : int;
}

type verdict =
  | Deliver of { write_at : Seq32.t; write_len : int; advance : int }
  | Store of { write_at : Seq32.t; write_len : int }
  | Duplicate
  | Drop

let create ?(max_ranges = 1) () =
  if max_ranges < 1 then invalid_arg "Ooo_interval.create: max_ranges < 1";
  { ranges = []; max_ranges; stamp = 0 }

let is_empty t = t.ranges = []

let interval t =
  match t.ranges with [] -> None | r :: _ -> Some (r.r_start, r.r_len)

let ranges t = List.map (fun r -> (r.r_start, r.r_len)) t.ranges

let reset t = t.ranges <- []

let sack_blocks t ~limit =
  (* Most recently updated first (RFC 2018's ordering hint), capped at the
     option-space limit. *)
  let by_recency =
    List.sort (fun a b -> compare b.r_touch a.r_touch) t.ranges
  in
  let rec take n = function
    | r :: rest when n > 0 ->
      (r.r_start, Seq32.add r.r_start r.r_len) :: take (n - 1) rest
    | _ -> []
  in
  take limit by_recency

let range_end r = Seq32.add r.r_start r.r_len

let insert_sorted r ranges =
  let rec go = function
    | r' :: rest when Seq32.lt r'.r_start r.r_start -> r' :: go rest
    | rest -> r :: rest
  in
  go ranges

let handle t ~exp ~window ~seg_start ~seg_len =
  (* Trim any prefix that duplicates already-delivered data. *)
  let s, l =
    if Seq32.lt seg_start exp then begin
      let dup = Seq32.diff exp seg_start in
      if dup >= seg_len then (exp, 0) else (exp, seg_len - dup)
    end
    else (seg_start, seg_len)
  in
  if l = 0 then Duplicate
  else if s = exp then begin
    (* In-order: clip to the receive window. *)
    let l = Int.min l window in
    if l = 0 then Drop
    else begin
      (* The stream advances through every stored range the new edge
         touches (gap closed): deliver the whole contiguous run. *)
      let new_exp = ref (Seq32.add exp l) in
      let rec consume = function
        | r :: rest when Seq32.geq !new_exp r.r_start ->
          if Seq32.gt (range_end r) !new_exp then new_exp := range_end r;
          consume rest
        | rest -> rest
      in
      t.ranges <- consume t.ranges;
      Deliver { write_at = s; write_len = l; advance = Seq32.diff !new_exp exp }
    end
  end
  else begin
    (* Out-of-order: s is beyond exp. Must fit within the window. *)
    let offset = Seq32.diff s exp in
    if offset >= window then Drop
    else begin
      let l = Int.min l (window - offset) in
      let seg_end = Seq32.add s l in
      (* Ranges the segment overlaps or abuts merge with it (the paper's
         "segments of the same interval"); merging can chain several
         stored ranges into one. *)
      let touching, others =
        List.partition
          (fun r ->
            not (Seq32.gt s (range_end r) || Seq32.gt r.r_start seg_end))
          t.ranges
      in
      match touching with
      | _ :: _ ->
        let ns =
          List.fold_left
            (fun acc r -> if Seq32.lt r.r_start acc then r.r_start else acc)
            s touching
        in
        let ne =
          List.fold_left
            (fun acc r ->
              if Seq32.gt (range_end r) acc then range_end r else acc)
            seg_end touching
        in
        t.stamp <- t.stamp + 1;
        t.ranges <-
          insert_sorted
            { r_start = ns; r_len = Seq32.diff ne ns; r_touch = t.stamp }
            others;
        Store { write_at = s; write_len = l }
      | [] ->
        if List.length t.ranges < t.max_ranges then begin
          t.stamp <- t.stamp + 1;
          t.ranges <-
            insert_sorted
              { r_start = s; r_len = l; r_touch = t.stamp }
              t.ranges;
          Store { write_at = s; write_len = l }
        end
        else if t.max_ranges >= 2 then begin
          (* Multi-range mode, table full: evict the range furthest from
             the expected edge when the new segment sits closer (the
             evicted data is still covered by the sender's
             retransmission machinery); otherwise drop the newcomer.
             Single-interval mode keeps the paper's drop-only rule. *)
          let furthest =
            List.fold_left
              (fun acc r ->
                match acc with
                | None -> Some r
                | Some m ->
                  if Seq32.diff r.r_start exp > Seq32.diff m.r_start exp then
                    Some r
                  else acc)
              None t.ranges
          in
          match furthest with
          | Some f when Seq32.diff f.r_start exp > offset ->
            t.ranges <- List.filter (fun r -> r != f) t.ranges;
            t.stamp <- t.stamp + 1;
            t.ranges <-
              insert_sorted
                { r_start = s; r_len = l; r_touch = t.stamp }
                t.ranges;
            Store { write_at = s; write_len = l }
          | _ -> Drop
        end
        else Drop
    end
  end
