(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and runs the hot-path perf suite.

   Usage:
     bench/main.exe [all]            run all experiments (full parameters)
     bench/main.exe quick            run all experiments (reduced sweeps)
     bench/main.exe f4 t1 ...        run selected experiments by id
     bench/main.exe perf [quick] [--check] [--baseline FILE]
                                     hot-path perf suite (+ regression gate)
     bench/main.exe list             list experiment ids

   Any form accepts -j N / --jobs N / --jobs=N to run the selected
   experiments on N domains; output stays in submission order. *)

module Registry = Tas_experiments.Registry
module Perf_bench = Tas_experiments.Perf_bench

(* --- Entry point ----------------------------------------------------------- *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Pull -j N / --jobs N / --jobs=N out of the argument list. *)
let extract_jobs args =
  let jobs = ref 1 in
  let parse what n =
    match int_of_string_opt n with
    | Some v when v >= 1 -> jobs := v
    | _ ->
      Printf.eprintf "invalid %s value: %s\n" what n;
      exit 2
  in
  let rec strip acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest ->
      parse "--jobs" n;
      strip acc rest
    | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "--jobs needs a value\n";
      exit 2
    | s :: rest when starts_with ~prefix:"--jobs=" s ->
      parse "--jobs" (String.sub s 7 (String.length s - 7));
      strip acc rest
    | s :: rest -> strip (s :: acc) rest
  in
  let rest = strip [] args in
  (rest, !jobs)

let run_perf args fmt =
  let quick = List.mem "quick" args in
  let check = List.mem "--check" args in
  let baseline =
    let rec find = function
      | [ "--baseline" ] ->
        Printf.eprintf "--baseline needs a value\n";
        exit 2
      | "--baseline" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    match find args with
    | Some p -> Some p
    | None -> if check then Some "bench/baseline_perf.json" else None
  in
  if not (Perf_bench.run ~quick ?baseline fmt) then exit 1

let () =
  let args, jobs = extract_jobs (List.tl (Array.to_list Sys.argv)) in
  Tas_experiments.Run_opts.set_jobs jobs;
  let fmt = Format.std_formatter in
  (match args with
  | [] | [ "all" ] -> Registry.run_all ~jobs fmt
  | [ "quick" ] | [ "all"; "quick" ] -> Registry.run_all ~quick:true ~jobs fmt
  | "perf" :: rest -> run_perf rest fmt
  | [ "list" ] ->
    List.iter
      (fun e -> Printf.printf "%-4s %s\n" e.Registry.id e.Registry.title)
      Registry.all
  | ids ->
    let entries =
      List.filter_map
        (fun id ->
          match Registry.find id with
          | Some e -> Some e
          | None ->
            Printf.eprintf "unknown experiment id: %s\n" id;
            None)
        ids
    in
    Registry.run_selection ~jobs entries fmt;
    Format.pp_print_flush fmt ();
    if List.length entries < List.length ids then exit 1);
  Format.pp_print_flush fmt ()
