(* One measured run of a workload, the metrics computed from it, and the
   output and no-perturbation checks. *)

module Config = Hare_config.Config
module Driver = Hare_experiments.Driver
module Opcount = Hare_stats.Opcount
module Trace = Hare_trace.Trace
module Robust = Hare_stats.Robust
open Measure
module Probed = Driver.Make (Probe.World)
module Plain = Driver.Make (Hare_experiments.World.Hare_w)

type outcome = {
  result : Driver.result;
  setup_s : float;  (** [Driver.run] start to the first worker spawn *)
  host_s : float;  (** first worker spawn to the return of [Driver.run] *)
  lat : int array;  (** sorted latency samples, cycles *)
  lag : int array;  (** sorted generator lags, cycles (open loop) *)
  attempted : int;
  failed : int;
  delta : Probe.counters;  (** the timed region *)
  heap_words : int;  (** [Gc] top_heap_words after the run *)
}

let run_plain (c : Cases.t) ~seed =
  Plain.run ~config:(Cases.config c ~seed ~traced:false) ?nprocs:c.Cases.nprocs
    ~scale:c.Cases.scale c.Cases.spec

let run (c : Cases.t) ~seed ~traced =
  Gc.compact ();
  Probe.reset ~open_loop:(c.Cases.loop = Cases.Open) ~attribute:traced;
  let config = Cases.config c ~seed ~traced in
  let result =
    Probed.run ~config ?nprocs:c.Cases.nprocs ~scale:c.Cases.scale c.Cases.spec
  in
  let t_end = Unix.gettimeofday () in
  Probe.close_attribution ();
  Probe.flush_requests ();
  let m = Probe.machine () in
  let st = Probe.st in
  let at_spawn =
    match st.Probe.at_spawn with
    | Some s -> s
    | None -> failwith (c.Cases.name ^ ": no worker was spawned")
  in
  {
    result;
    setup_s = at_spawn.Probe.wall -. st.Probe.t_start;
    host_s = t_end -. at_spawn.Probe.wall;
    lat = Ibuf.sorted st.Probe.lat;
    lag = Ibuf.sorted st.Probe.lag;
    attempted = st.Probe.attempted;
    failed = st.Probe.failed;
    delta = Probe.diff at_spawn (Probe.counters m);
    heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

let ops o = float_of_int o.result.Driver.ops

let host_ops_per_s o = ops o /. o.host_s

let p50 o = percentile o.lat 50.

let p999 o = percentile o.lat 99.9

let mix (r : Driver.result) = Opcount.to_list r.Driver.syscalls

(* {1 Checks} *)

(* Output checks on one run: every worker exited 0 ([Driver.run] raises
   otherwise), the operation count observed equals [spec.ops], the
   timed system-call mix equals the workload's recorded mix, and no
   operation failed. Returns the violations. *)
let output_errors (c : Cases.t) o =
  let r = o.result in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let observed =
    match c.Cases.loop with
    | Cases.Open -> o.attempted
    | Cases.Closed ->
        List.fold_left
          (fun acc op -> acc + Opcount.get r.Driver.syscalls op)
          0 c.Cases.op_calls
  in
  if observed <> r.Driver.ops then
    err "%d operations observed, spec.ops is %d" observed r.Driver.ops;
  if mix r <> c.Cases.mix then
    err "syscall mix %s differs from the recorded %s"
      (Cases.mix_to_string (mix r))
      (Cases.mix_to_string c.Cases.mix);
  if o.failed <> 0 then
    err "%d of %d operations failed" o.failed o.attempted;
  List.rev !errs

(* What must not change between a plain [Driver.run], a wrapped run and
   a traced run of the same workload and seed. *)
let fingerprint (r : Driver.result) =
  Printf.sprintf "ops/s=%.17g elapsed=%.17g events=%d mix=%s"
    r.Driver.throughput r.Driver.elapsed r.Driver.engine.es_events
    (Cases.mix_to_string (mix r))

let latency_fingerprint o =
  Printf.sprintf "p50=%d p999=%d n=%d" (p50 o) (p999 o) (Array.length o.lat)

let perturbation_errors ~plain ~reference outcomes =
  List.concat_map
    (fun (label, o) ->
      let e1 =
        if fingerprint o.result <> fingerprint plain then
          [
            Printf.sprintf "%s run: %s, plain run: %s" label
              (fingerprint o.result) (fingerprint plain);
          ]
        else []
      in
      let e2 =
        if latency_fingerprint o <> latency_fingerprint reference then
          [
            Printf.sprintf "%s run: %s, first wrapped run: %s" label
              (latency_fingerprint o) (latency_fingerprint reference);
          ]
        else []
      in
      e1 @ e2)
    outcomes

(* {1 Metrics} *)

let m name unit_ value = { name; unit_; value }

(* End-to-end metrics. Simulated ones from [first] (they repeat
   exactly), the heap peak too, as the first run of the process; host
   ones as medians over the warm runs. *)
let end_to_end ~first ~warm =
  [
    m "sim_ops_per_s" "ops/sim_s" first.result.Driver.throughput;
    m "sim_lat_p50_cycles" "cycles" (float_of_int (p50 first));
    m "sim_lat_p999_cycles" "cycles" (float_of_int (p999 first));
    m "host_ops_per_s" "ops/s" (median (List.map host_ops_per_s warm));
    m "setup_s" "s" (median (List.map (fun o -> o.setup_s) warm));
    m "host_peak_heap_mb" "MiB"
      (float_of_int (first.heap_words * (Sys.word_size / 8)) /. 1048576.);
    m "ok_frac" "ratio"
      (1. -. (float_of_int first.failed /. float_of_int first.attempted));
  ]

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Trace profile rows of the init process's own calls, which span the
   whole timed region; every other client syscall row is a worker's. *)
let init_ops = [ "spawn"; "waitpid"; "wait" ]

(* Worker system-call cycles per trace bucket, timed region. *)
let buckets (r : Driver.result) =
  let b = Array.make Trace.nbuckets 0 in
  List.iter
    (fun (row : Trace.row) ->
      if not (List.mem row.Trace.r_op init_ops) then
        Array.iteri (fun i v -> b.(i) <- b.(i) + Int64.to_int v) row.Trace.r_buckets)
    r.Driver.profile;
  b

(* Per-layer metrics. Counts come from the first untraced run (tracing
   allocates, so GC numbers would include it); cycle buckets and host
   time per event kind from the traced runs; [overhead] is
   1 - traced/untraced host ops/s, medians over the traced and the warm
   untraced runs. *)
let per_layer (c : Cases.t) ~first ~warm ~traced =
  let u = first and t = List.hd traced in
  let d = u.delta in
  let n = ops u in
  let per x = float_of_int x /. n in
  let perf x = x /. n in
  let tb = buckets t.result in
  let bucket b = per tb.(Trace.bucket_index b) in
  let host_ns k =
    median
      (List.map
         (fun o ->
           let dk = o.delta in
           if dk.Probe.kind_n.(k) = 0 then 0.
           else
             float_of_int dk.Probe.kind_ns.(k) /. float_of_int dk.Probe.kind_n.(k))
         traced)
  in
  let kn = t.delta.Probe.kind_n in
  let cfg = c.Cases.config in
  let util busy cores =
    let nc = List.length cores in
    if nc = 0 || d.Probe.clock = 0 then 0.
    else float_of_int busy /. float_of_int (nc * d.Probe.clock)
  in
  let srv_ops = Array.fold_left ( + ) 0 d.Probe.srv_ops in
  let imbalance =
    let served = List.filter (fun x -> x > 0) (Array.to_list d.Probe.srv_ops) in
    match served with
    | [] -> 1.
    | l ->
        let mean = float_of_int srv_ops /. float_of_int (List.length l) in
        float_of_int (List.fold_left max 0 l) /. mean
  in
  let r = u.result.Driver.robust in
  let peak_queue =
    List.fold_left (fun acc (_, _, q) -> max acc q) 0 u.result.Driver.loads
  in
  let gen_lag =
    if Array.length u.lag = 0 then 0. else float_of_int (percentile u.lag 99.)
  in
  let overhead =
    1.
    -. median (List.map host_ops_per_s traced)
       /. median (List.map host_ops_per_s warm)
  in
  [
    m "sim.events_per_op" "count" (per d.Probe.events);
    m "sim.resume_per_op" "count" (per kn.(1));
    m "sim.deliver_per_op" "count" (per kn.(2));
    m "sim.opaque_per_op" "count" (per kn.(0));
    m "sim.host_ns_resume" "ns" (host_ns 1);
    m "sim.host_ns_deliver" "ns" (host_ns 2);
    m "sim.host_ns_opaque" "ns" (host_ns 0);
    m "sim.peak_live_fibers" "count" (float_of_int u.result.Driver.engine.es_peak_fibers);
    m "sim.app_core_util" "ratio" (util d.Probe.app_busy (Config.app_cores cfg));
    m "sim.server_core_util" "ratio" (util d.Probe.srv_busy (Config.server_cores cfg));
    m "gc.minor_words_per_op" "words" (perf d.Probe.minor);
    m "gc.promoted_words_per_op" "words" (perf d.Probe.promoted);
    m "gc.major_collections" "count" (float_of_int d.Probe.majors);
    m "client.rpcs_per_op" "count" (per d.Probe.rpcs);
    m "client.dircache_hit_ratio" "ratio"
      (ratio d.Probe.dc_hits (d.Probe.dc_hits + d.Probe.dc_misses));
    m "client.dircache_invals_per_op" "count" (per d.Probe.dc_invals);
    m "client.retries_per_op" "count" (per r.Robust.retries);
    m "client.giveups_per_op" "count" (per r.Robust.giveups);
    m "client.fastfail_per_op" "count" (per r.Robust.fast_fails);
    m "client.budget_denied_per_op" "count" (per r.Robust.budget_denied);
    m "msg.send_cycles_per_op" "cycles" (bucket Trace.Send);
    m "msg.queue_cycles_per_op" "cycles" (bucket Trace.Queue);
    m "msg.flow_blocks_per_op" "count" (per r.Robust.flow_blocks);
    m "server.dispatch_cycles_per_op" "cycles" (bucket Trace.Dispatch);
    m "server.ops_per_op" "count" (per srv_ops);
    m "server.invals_per_op" "count" (per d.Probe.srv_invals);
    m "server.peak_queue" "count" (float_of_int peak_queue);
    m "server.imbalance" "ratio" imbalance;
    m "server.shed_per_op" "count" (per (r.Robust.shed_load + r.Robust.shed_expired));
    m "mem.cache_cycles_per_op" "cycles" (bucket Trace.Cache);
    m "mem.dram_cycles_per_op" "cycles" (bucket Trace.Dram);
    m "mem.pcache_hit_ratio" "ratio"
      (ratio d.Probe.pc_hits (d.Probe.pc_hits + d.Probe.pc_misses));
    m "mem.dram_fills_per_op" "count" (per d.Probe.pc_misses);
    m "mem.writebacks_per_op" "count" (per d.Probe.pc_writebacks);
    m "mem.invalidated_per_op" "count" (per d.Probe.pc_invalidated);
    m "mem.evictions_per_op" "count" (per d.Probe.pc_evictions);
    m "core.compute_cycles_per_op" "cycles" (bucket Trace.Compute);
    m "workloads.gen_lag_p99_cycles" "cycles" gen_lag;
    m "workloads.lat_samples" "count" (float_of_int (Array.length u.lat));
    m "workloads.failed_frac" "ratio" (ratio u.failed u.attempted);
    m "trace.overhead_frac" "ratio" overhead;
  ]
