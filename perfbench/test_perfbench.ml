(* The benchmark's own tests: percentile and sample-count rule, metric
   names, open-loop request grouping, wrapper transparency and the
   output check's power to fail. *)

open Perfbench
module Api = Hare_api.Api
module Config = Hare_config.Config
module Driver = Hare_experiments.Driver
module Spec = Hare_workloads.Spec

let ints n = Array.init n (fun i -> i + 1)

let test_percentile () =
  Alcotest.(check int) "p50 of 20" 10 (Measure.percentile (ints 20) 50.);
  Alcotest.(check int) "p99.9 of 10000" 9990 (Measure.percentile (ints 10_000) 99.9);
  Alcotest.(check int) "p99 of 1000" 990 (Measure.percentile (ints 1000) 99.);
  (* nearest rank rounds the rank up: p50 of 21 samples is the 11th *)
  Alcotest.(check int) "p50 of 21" 11 (Measure.percentile (ints 21) 50.)

let test_sample_rule () =
  Alcotest.(check int) "p99.9 needs 10000" 10_000 (Measure.min_samples 99.9);
  Alcotest.(check int) "p99 needs 1000" 1000 (Measure.min_samples 99.);
  Alcotest.(check int) "p50 needs 20" 20 (Measure.min_samples 50.);
  let refused a q =
    match Measure.percentile a q with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "9999 samples: no p99.9" true (refused (ints 9999) 99.9);
  Alcotest.(check bool) "19 samples: no p50" true (refused (ints 19) 50.);
  Alcotest.(check bool) "q = 0 refused" true (refused (ints 100) 0.);
  Alcotest.(check bool) "q = 100 refused" true (refused (ints 100) 100.);
  (* at the threshold exactly ten samples lie beyond the percentile *)
  let a = ints 10_000 in
  let p = Measure.percentile a 99.9 in
  Alcotest.(check int) "ten beyond" 10
    (Array.fold_left (fun acc v -> if v > p then acc + 1 else acc) 0 a)

let test_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Measure.valid_name s))
    [ "setup_s"; "sim.events_per_op"; "a-b.c_d"; "0x"; String.make 64 'a' ];
  List.iter
    (fun s -> Alcotest.(check bool) (String.escaped s) false (Measure.valid_name s))
    [ ""; "_x"; ".x"; "-x"; "a b"; "a/b"; "a:b"; "caf\xc3\xa9"; String.make 65 'a' ];
  match
    Measure.result_json ~correct:true ~attempted:1 ~failed:0
      [ { Measure.name = "bad name"; unit_ = "s"; value = 1. } ]
  with
  | _ -> Alcotest.fail "an invalid metric name was printed"
  | exception Invalid_argument _ -> ()

let case ?(loop = Cases.Closed) ?nprocs ?(op_calls = []) ?(mix = []) ~ncores
    ~scale spec =
  {
    Cases.name = "test";
    spec;
    nprocs;
    scale;
    loop;
    config =
      { (Driver.default_config ~ncores) with Config.placement = Config.Split 1 };
    op_calls;
    mix;
  }

(* Every metric name the benchmark emits, from a real (tiny) run. *)
let test_emitted_names () =
  (* 3 workers x 250 x 7 creates, two calls each: enough for a p99.9 *)
  let c = case ~ncores:4 ~scale:7 Hare_workloads.Creates.spec in
  let u = Bench.run c ~seed:1L ~traced:false in
  let t = Bench.run c ~seed:1L ~traced:true in
  let names =
    List.map
      (fun (m : Measure.metric) -> m.Measure.name)
      (Bench.end_to_end ~first:u ~warm:[ u ]
      @ Bench.per_layer c ~first:u ~warm:[ u ] ~traced:[ t ])
  in
  List.iter (fun n -> Alcotest.(check bool) n true (Measure.valid_name n)) names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* One worker, two requests. The first is due at t0 + 10000 and makes
   two system calls; the second is due at t0 + 10001, before the first
   has finished, so the generator runs late and the second request's
   latency counts the wait from its due time. *)
let two_requests : Spec.t =
  {
    Spec.name = "two-requests";
    mode = Spec.Workers;
    exec_policy = Config.Round_robin;
    uses_dist = false;
    setup = Spec.nop_setup;
    worker =
      (fun api p ~idx:_ ~nprocs:_ ~scale:_ ->
        let t0 = api.Api.now_cycles p in
        api.Api.sleep_until p (Int64.add t0 10_000L);
        ignore (api.Api.stat p "/");
        ignore (api.Api.stat p "/");
        api.Api.sleep_until p (Int64.add t0 10_001L);
        ignore (api.Api.stat p "/"));
    programs = Spec.no_programs;
    ops = (fun ~nprocs ~scale:_ -> 2 * nprocs);
  }

let test_open_loop_grouping () =
  let c = case ~loop:Cases.Open ~nprocs:1 ~ncores:4 ~scale:1 two_requests in
  let o = Bench.run c ~seed:1L ~traced:false in
  Alcotest.(check int) "two requests" 2 o.Bench.attempted;
  Alcotest.(check int) "one sample per request" 2 (Array.length o.Bench.lat);
  Alcotest.(check int) "none failed" 0 o.Bench.failed;
  (* lag: 0 for the first sleep (early), positive for the second *)
  Alcotest.(check int) "two lag samples" 2 (Array.length o.Bench.lag);
  Alcotest.(check int) "first due on time" 0 o.Bench.lag.(0);
  let lag = o.Bench.lag.(1) in
  Alcotest.(check bool) "generator ran late" true (lag > 0);
  (* Request 1 ends at e1 = t0 + 10000 + l1; the generator reaches the
     second due time t0 + 10001 at e1, late by l1 - 1. Request 2 is
     timed from its due time, so it covers that wait plus its stat. *)
  let l1 = o.Bench.lat.(0) and l2 = o.Bench.lat.(1) in
  Alcotest.(check int) "lag = first latency - 1" (l1 - 1) lag;
  Alcotest.(check bool) "late request counts its wait" true (l2 > l1)

(* The benchmark's paced workload at toy size: one latency sample per
   request (not per system call), every request accounted for. *)
let test_paced_toy () =
  let c = case ~loop:Cases.Open ~nprocs:4 ~ncores:8 ~scale:1 Cases.paced in
  let o = Bench.run c ~seed:3L ~traced:false in
  let requests = 4 * Cases.paced_iters ~scale:1 in
  Alcotest.(check int) "requests" requests o.Bench.attempted;
  Alcotest.(check int) "samples" requests (Array.length o.Bench.lat);
  Alcotest.(check int) "failed" 0 o.Bench.failed;
  Alcotest.(check bool) "fewer samples than system calls" true
    (Hare_stats.Opcount.total o.Bench.result.Driver.syscalls > requests)

(* The wrapped world, traced or not, runs the same simulation as the
   plain one: same clock, events, throughput, op mix and latencies. *)
let test_transparency () =
  let c = case ~ncores:4 ~scale:1 Hare_workloads.Creates.spec in
  let plain = Bench.run_plain c ~seed:5L in
  let u = Bench.run c ~seed:5L ~traced:false in
  let t = Bench.run c ~seed:5L ~traced:true in
  let fp = Bench.fingerprint plain in
  Alcotest.(check string) "wrapped = plain" fp (Bench.fingerprint u.Bench.result);
  Alcotest.(check string) "traced = plain" fp (Bench.fingerprint t.Bench.result);
  Alcotest.(check (array int)) "same latencies" u.Bench.lat t.Bench.lat;
  Alcotest.(check bool) "timed every worker call" true
    (Array.length u.Bench.lat = 2 * plain.Driver.ops)

(* The output check fails on a wrong recorded mix or op count. *)
let test_output_check_fails () =
  let c = case ~ncores:4 ~scale:1 ~op_calls:[ "open" ] Hare_workloads.Creates.spec in
  let o = Bench.run c ~seed:1L ~traced:false in
  let good = { c with Cases.mix = Bench.mix o.Bench.result } in
  Alcotest.(check (list string)) "recorded mix passes" [] (Bench.output_errors good o);
  let wrong_mix = { good with Cases.mix = [ ("open", 1) ] } in
  Alcotest.(check int) "wrong mix caught" 1
    (List.length (Bench.output_errors wrong_mix o));
  let wrong_ops = { good with Cases.op_calls = [ "close" ] } in
  Alcotest.(check int) "wrong op count caught" 1
    (List.length (Bench.output_errors wrong_ops o))

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "sample-count rule" `Quick test_sample_rule;
          Alcotest.test_case "metric-name charset" `Quick test_names;
        ] );
      ( "probe",
        [
          Alcotest.test_case "emitted names" `Quick test_emitted_names;
          Alcotest.test_case "open-loop grouping" `Quick test_open_loop_grouping;
          Alcotest.test_case "paced toy run" `Quick test_paced_toy;
          Alcotest.test_case "transparency on 4 cores" `Quick test_transparency;
          Alcotest.test_case "output check can fail" `Quick test_output_check_fails;
        ] );
    ]
