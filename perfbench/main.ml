(* main.exe --workload W --seed N --seconds S --trace 0|1

   Runs workload W for about S host seconds and prints, as the last line
   of standard output, one JSON object: the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1). Exits 1 without a
   result when an output check or the no-perturbation check fails, 2 on
   bad arguments. See README.md. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun c -> c.Cases.name) Cases.all));
  exit 2

let args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

let arg k = match List.assoc_opt k args with Some v -> v | None -> usage ()

let int_arg k = match int_of_string_opt (arg k) with Some n -> n | None -> usage ()

let fail errs =
  List.iter (fun e -> prerr_endline ("perfbench: check failed: " ^ e)) errs;
  exit 1

let print_metrics name ms =
  List.iter
    (fun (x : Measure.metric) ->
      Printf.printf "# %-12s %-32s %16.6g %s\n" name x.Measure.name x.Measure.value
        x.Measure.unit_)
    ms

let () =
  let c =
    match Cases.find (arg "workload") with Some c -> c | None -> usage ()
  in
  let seed = Int64.of_int (int_arg "seed") in
  let seconds = float_of_int (int_arg "seconds") in
  let traced =
    match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  let run traced =
    let o = Bench.run c ~seed ~traced in
    (match Bench.output_errors c o with [] -> () | errs -> fail errs);
    o
  in
  try
    let first = run false in
    let plain = Bench.run_plain c ~seed in
    (* The first run and the plain run warm the process up (the heap
       grows to its working size); host figures come from the untraced
       runs after them, at least three so that each is a median. With
       --trace 1, traced runs alternate with untraced ones, at least one
       of each. Then more runs until the time is up. *)
    let untraced = ref [ first ] and traced_runs = ref [] in
    let enough () =
      elapsed () >= seconds
      &&
      if traced then !traced_runs <> [] && List.length !untraced >= 2
      else List.length !untraced >= 4
    in
    while not (enough ()) do
      if traced && List.length !traced_runs < List.length !untraced then
        traced_runs := run true :: !traced_runs
      else untraced := run false :: !untraced
    done;
    let untraced = List.rev !untraced and traced_runs = List.rev !traced_runs in
    let warm = List.tl untraced in
    let labelled =
      List.mapi (fun i o -> (Printf.sprintf "wrapped #%d" (i + 1), o)) untraced
      @ List.mapi (fun i o -> (Printf.sprintf "traced #%d" (i + 1), o)) traced_runs
    in
    (match Bench.perturbation_errors ~plain ~reference:first labelled with
    | [] -> ()
    | errs -> fail errs);
    let metrics =
      if traced then Bench.per_layer c ~first ~warm ~traced:traced_runs
      else Bench.end_to_end ~first ~warm
    in
    print_metrics c.Cases.name metrics;
    Printf.printf
      "# %s: %d untraced, %d traced runs in %.1f s; host ops/s: first run %.0f, warm runs%s\n"
      c.Cases.name (List.length untraced) (List.length traced_runs) (elapsed ())
      (Bench.host_ops_per_s first)
      (String.concat ""
         (List.map (fun o -> Printf.sprintf " %.0f" (Bench.host_ops_per_s o)) warm));
    print_endline
      (Measure.result_json ~correct:true ~attempted:first.Bench.attempted
         ~failed:first.Bench.failed metrics)
  with e -> fail [ Printexc.to_string e ]
