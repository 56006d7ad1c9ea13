(* Self-scheduling map: each participant claims the next unclaimed input
   index from a shared counter until none is left, so no domain idles while
   a job waits. Results land at their submission index, which makes the
   merge independent of which domain ran what. *)

let map ~jobs ~f inputs =
  if jobs < 1 then invalid_arg "Tas_parallel.map: jobs < 1";
  let n = Array.length inputs in
  let results = Array.make n (Error Exit) in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- (try Ok (f inputs.(i)) with e -> Error e);
      work ()
    end
  in
  let spawned = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join !spawned)
    (fun () ->
      for _ = 2 to min jobs n do
        spawned := Domain.spawn work :: !spawned
      done;
      work ());
  Array.map (function Ok v -> v | Error e -> raise e) results
