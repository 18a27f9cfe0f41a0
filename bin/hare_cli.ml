(* hare-cli: run Hare benchmarks and regenerate the paper's figures.

   Examples:
     hare_cli list
     hare_cli bench creates --cores 8 --world linux
     hare_cli bench "build linux" --cores 16 --scale 2
     hare_cli fig 6 --quick
     hare_cli fig all
*)

open Cmdliner
module Config = Hare_config.Config
module Spec = Hare_workloads.Spec
module Machine = Hare.Machine
module Check = Hare_check.Check
module Sanity = Hare_stats.Sanity
module Figures = Hare_experiments.Figures
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module HD = Driver.Make (World.Hare_w)
module LD = Driver.Make (World.Linux_w)

(* ---------- shared options ---------------------------------------------- *)

(* Every flag is defined once here; a subcommand whose default differs
   passes it in. *)

let int_opt name default docv doc =
  Arg.(value & opt int default & info [ name ] ~docv ~doc)

let cores_arg = int_opt "cores" 8 "N" "Number of cores."

let nprocs_arg ?(doc = "Worker processes (default: one per application core).")
    () =
  Arg.(value & opt (some int) None & info [ "nprocs" ] ~docv:"N" ~doc)

let scale_arg =
  int_opt "scale" 1 "K"
    "Workload scale multiplier (1 = fast default; larger approaches \
     paper-size runs)."

let bench_arg ?default ?(doc = "Benchmark name (see `hare_cli list`).") () =
  let i = Arg.info [] ~docv:"BENCH" ~doc in
  match default with
  | None -> Arg.(required & pos 0 (some string) None i)
  | Some d -> Arg.(value & pos 0 string d i)

let world_arg =
  Arg.(
    value
    & opt (enum [ ("hare", `Hare); ("linux", `Linux); ("unfs", `Unfs) ]) `Hare
    & info [ "world" ] ~docv:"WORLD"
        ~doc:"System under test: hare, linux (tmpfs baseline), unfs.")

(* [ty]/[default] are [some int]/[None] or [int] and a fixed default. *)
let split_arg
    ?(doc = "Dedicate $(docv) cores to file servers (default: timeshare).") ty
    default =
  Arg.(value & opt ty default & info [ "split" ] ~docv:"S" ~doc)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let no_dist = flag "no-dist" "Disable directory distribution."

let no_bcast = flag "no-broadcast" "Disable directory broadcast."

let no_direct = flag "no-direct" "Disable direct buffer-cache access."

let no_dcache = flag "no-dircache" "Disable the directory cache."

let no_affinity = flag "no-affinity" "Disable creation affinity."

let width_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "width" ] ~docv:"W"
        ~doc:
          "Distribute each directory over only $(docv) servers (extension,            paper §6).")

let steal =
  flag "steal" "Enable block stealing between servers (extension, §3.2)."

let shard_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard" ] ~docv:"S"
        ~doc:
          "Consistent-hash placement: $(docv) file-server homes on a \
           rendezvous ring (extension; overrides --split).")

let vnodes_arg =
  int_opt "vnodes" 32 "V"
    "Hash points per server on the placement ring (with --shard)."

let shard_plan_arg =
  Arg.(
    value & opt string ""
    & info [ "shard-plan" ] ~docv:"PLAN"
        ~doc:
          "Ring-membership plan (with --shard): 'add@CYCLES' activates a \
           spare server, 'remove:SID@CYCLES' drains one; ';'-separated.")

let seed_arg ?(docv = "S") ?(doc = "Simulation seed.") () =
  int_opt "seed" 1 docv doc

let plan_arg doc =
  Arg.(value & opt string "" & info [ "plan" ] ~docv:"SPEC" ~doc)

(* [ty]/[default] as for [split_arg]; an absent [some int] deadline is
   resolved by [deadline_for]. *)
let deadline_arg
    ?(doc =
      "First-attempt RPC deadline in cycles; 0 disables retries. Defaults to \
       0 without a plan, 25000 with one.") ty default =
  Arg.(value & opt ty default & info [ "deadline" ] ~docv:"CYCLES" ~doc)

let retries_arg default =
  int_opt "retries" default "N" "RPC attempts before giving up with EIO."

let window_arg default =
  int_opt "window" default "W" "rpc_window (1 = synchronous)."

let batch_arg default =
  int_opt "batch" default "B" "batch_max (1 = one request per wakeup)."

let extent_arg default =
  int_opt "extent" default "E" "alloc_extent (1 = block-at-a-time)."

let check_flag = flag "check" "Run with the coherence sanitizer attached."

let cap_arg =
  int_opt "trace-cap" 65536 "N"
    "Trace ring-buffer capacity in events; the oldest events are dropped \
     (and counted) beyond it. 0 = no span ring: the export is a clean \
     metadata-only artifact (never fails --strict)."

(* ---------- one run path ------------------------------------------------ *)

let find_spec name =
  match Hare_workloads.All.find name with
  | spec -> spec
  | exception Not_found ->
      Printf.eprintf "unknown benchmark %S; try `hare_cli list`\n" name;
      exit 1

(* The experiments' standard machine, placing processes by [spec]'s
   policy. *)
let base_config (spec : Spec.t) cores =
  {
    (Driver.default_config ~ncores:cores) with
    Config.exec_policy = spec.Spec.exec_policy;
  }

(* [config] if a machine can boot from it; otherwise one line on stderr
   and exit 1. *)
let validated config =
  let bad msg =
    Printf.eprintf "bad configuration: %s\n" msg;
    exit 1
  in
  (match Config.validate config with Ok () -> () | Error msg -> bad msg);
  match Hare_fault.Plan.parse config.Config.fault_plan with
  | Error msg -> bad ("fault plan: " ^ msg)
  | Ok plan ->
      let nphys = Config.physical_servers config in
      List.iter
        (fun (ev : Hare_fault.Plan.server_event) ->
          if ev.ev_sid < 0 || ev.ev_sid >= nphys then
            bad
              (Printf.sprintf
                 "fault plan targets fs%d but only %d server(s) exist"
                 ev.ev_sid nphys))
        plan.events;
      config

(* Wire faults only bite tagged (retryable) requests, so a plan without
   an armed deadline would silently no-op; conversely an armed deadline
   with no plan still times out the slowest RPCs. Default to off when
   fault-free and a sane deadline otherwise. *)
let deadline_for ~plan = function
  | Some d -> d
  | None -> if plan = "" then 0 else 25_000

let placement_of split c =
  match split with
  | Some s -> { c with Config.placement = Config.Split s }
  | None -> c

(* Boot [config] and run [spec] on it through the driver's run loop.
   Unlike [bench], the reports built on this cover the whole run, setup
   included. *)
let run_spec ?nprocs ~scale config spec =
  let config = validated config in
  let m = Machine.boot config in
  let nprocs =
    match nprocs with
    | Some n -> n
    | None -> List.length (Config.app_cores config)
  in
  (m, HD.exec ~nprocs ~scale m spec)

(* Say why a run did not end with every worker exiting 0; true if so. *)
let workers_failed ?(prefix = "") ?(why = "") = function
  | Some 0 -> false
  | Some n ->
      Printf.printf "%s%d worker(s) failed%s\n" prefix n why;
      true
  | None ->
      Printf.printf "%sinit never finished\n" prefix;
      true

let counter_table key value counters =
  Hare_stats.Table.print ~headers:[ key; value ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) counters)

let list_violations vs =
  List.iteri
    (fun i v -> if i < 20 then Format.printf "%a@." Check.pp_violation v)
    vs;
  let n = List.length vs in
  if n > 20 then Printf.printf "... and %d more\n" (n - 20)

(* ---------- bench command ----------------------------------------------- *)

let run_bench name cores nprocs scale world split shard vnodes shard_plan nd nb
    ndir ndc na width st verbose =
  let spec = find_spec name in
  let c = placement_of split (Driver.default_config ~ncores:cores) in
  let c =
    match shard with
    | Some s ->
        {
          c with
          Config.placement = Config.Sharded { servers = s; vnodes };
          shard_plan;
        }
    | None -> c
  in
  let c =
    {
      c with
      Config.dir_distribution = not nd;
      dir_broadcast = not nb;
      direct_access = not ndir;
      dir_cache = not ndc;
      creation_affinity = not na;
      dist_width = width;
      block_stealing = st;
    }
  in
  let config =
    validated (match world with `Unfs -> World.unfs_config c | _ -> c)
  in
  let t0 = Unix.gettimeofday () in
  let result =
    match world with
    | `Hare | `Unfs -> HD.run ~config ?nprocs ~scale spec
    | `Linux -> LD.run ~config ?nprocs ~scale spec
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf
    "%s on %s: %d procs, %d ops in %.6f simulated seconds = %.0f ops/s\n"
    result.Driver.bench result.Driver.world result.Driver.nprocs
    result.Driver.ops result.Driver.elapsed result.Driver.throughput;
  let es = result.Driver.engine in
  if es.World.es_events > 0 then
    Printf.printf
      "engine: %d events, peak %d live fibers, %.2fs wall (%.0f sim_ops/s \
       host-side)\n"
      es.World.es_events es.World.es_peak_fibers wall
      (if wall > 0.0 then float_of_int result.Driver.ops /. wall else 0.0);
  if verbose then begin
    print_endline "system-call mix:";
    Format.printf "%a@." Hare_stats.Opcount.pp result.Driver.syscalls
  end;
  0

let bench_cmd =
  let verbose = flag "verbose" "Also print the system-call mix." in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run one benchmark and print its throughput, plus the simulator \
          engine's host-side cost (events executed, peak live fibers, wall \
          clock). Machines up to 512 cores are practical, e.g. $(b,bench \
          creates --cores 512 --split 64); $(b,bench/main.exe -- --json) \
          emits the full 64-512-core engine-scalability sweep \
          (sim_ops_per_sec, sim_events_per_sec, peak_live_fibers per row).")
    Term.(
      const run_bench $ bench_arg () $ cores_arg $ nprocs_arg () $ scale_arg
      $ world_arg
      $ split_arg Arg.(some int) None
      $ shard_arg $ vnodes_arg $ shard_plan_arg $ no_dist $ no_bcast
      $ no_direct $ no_dcache $ no_affinity $ width_arg $ steal $ verbose)

(* ---------- fig command ------------------------------------------------- *)

let run_fig which quick scale =
  let opts =
    let base = if quick then Figures.quick else Figures.default in
    { base with Figures.scale }
  in
  (match which with
  | "4" -> Figures.print_fig4 ()
  | "5" -> Figures.print_fig5 opts
  | "6" -> Figures.print_fig6 opts
  | "7" -> Figures.print_fig7 opts
  | "8" -> Figures.print_fig8 opts
  | "9" | "10" | "11" | "12" | "13" | "14" -> Figures.print_techniques opts
  | "15" -> Figures.print_fig15 opts
  | "micro" -> Figures.print_micro opts
  | "ext" | "extensions" -> Figures.print_extensions opts
  | "all" -> Figures.print_all opts
  | other ->
      Printf.eprintf "unknown figure %S (use 4-15, micro, all)\n" other;
      exit 1);
  0

let fig_cmd =
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FIG" ~doc:"Figure number (4-15), 'micro', 'ext', or 'all'.")
  in
  let quick =
    flag "quick" "Use small machine sizes (8 cores) for a fast run."
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Regenerate one of the paper's figures or tables.")
    Term.(const run_fig $ which $ quick $ scale_arg)

(* ---------- shell command ----------------------------------------------- *)

(* An interactive shell over a live simulated machine: each command is a
   POSIX call issued by the init process; the simulation advances while
   the command executes. *)
let shell_help =
  {|commands:
  ls [dir]            readdir
  cat FILE            print a file
  write FILE TEXT..   create/overwrite a file
  append FILE TEXT..  append to a file
  mkdir [-d] DIR      create a directory (-d: distributed)
  rm FILE | rmdir DIR
  mv OLD NEW          rename
  stat PATH           attributes
  cd DIR | pwd
  spawn N             run N remote workers that each create a file in /shell
  time                simulated time so far
  help | exit
|}

let run_shell cores =
  let module Posix = Hare.Posix in
  let m = Machine.boot (Driver.default_config ~ncores:cores) in
  Machine.register_program m "shell-worker" (fun p args ->
      let id = match args with a :: _ -> a | [] -> "?" in
      let fd =
        Posix.openf p
          (Printf.sprintf "/shell/worker-%s-core%d" id p.Hare_proc.Process.core_id)
          Hare_proto.Types.flags_w
      in
      ignore (Posix.write p fd ("written by worker " ^ id));
      Posix.close p fd;
      0);
  let init, _console =
    Machine.spawn_init m ~name:"shell" (fun p _ ->
        print_string shell_help;
        let quit = ref false in
        while not !quit do
          Printf.printf "hare:%s> %!" (Posix.getcwd p);
          match In_channel.input_line In_channel.stdin with
          | None -> quit := true
          | Some line -> (
              let words =
                String.split_on_char ' ' line |> List.filter (( <> ) "")
              in
              try
                match words with
                | [] -> ()
                | [ "exit" ] | [ "quit" ] -> quit := true
                | [ "help" ] -> print_string shell_help
                | [ "pwd" ] -> print_endline (Posix.getcwd p)
                | [ "cd"; d ] -> Posix.chdir p d
                | [ "ls" ] | [ "ls"; _ ] ->
                    let dir = match words with [ _; d ] -> d | _ -> "." in
                    List.iter
                      (fun (e : Hare_proto.Wire.entry) ->
                        Printf.printf "%s%s
" e.Hare_proto.Wire.e_name
                          (if e.Hare_proto.Wire.e_ftype = Hare_proto.Types.Dir
                           then "/"
                           else ""))
                      (Posix.readdir p dir)
                | [ "cat"; f ] ->
                    let fd = Posix.openf p f Hare_proto.Types.flags_r in
                    print_endline (Posix.read_all p fd);
                    Posix.close p fd
                | "write" :: f :: rest ->
                    let fd = Posix.openf p f Hare_proto.Types.flags_w in
                    ignore (Posix.write p fd (String.concat " " rest));
                    Posix.close p fd
                | "append" :: f :: rest ->
                    let fd = Posix.openf p f Hare_proto.Types.flags_a in
                    ignore (Posix.write p fd (String.concat " " rest));
                    Posix.close p fd
                | [ "mkdir"; "-d"; d ] -> Posix.mkdir p ~dist:true d
                | [ "mkdir"; d ] -> Posix.mkdir p d
                | [ "rm"; f ] -> Posix.unlink p f
                | [ "rmdir"; d ] -> Posix.rmdir p d
                | [ "mv"; a; b ] -> Posix.rename p a b
                | [ "stat"; path ] ->
                    let a = Posix.stat p path in
                    Printf.printf "ino=%d:%d type=%s size=%d dist=%b
"
                      a.Hare_proto.Types.a_ino.Hare_proto.Types.server
                      a.Hare_proto.Types.a_ino.Hare_proto.Types.ino
                      (match a.Hare_proto.Types.a_ftype with
                      | Hare_proto.Types.Dir -> "dir"
                      | Hare_proto.Types.Reg -> "file"
                      | Hare_proto.Types.Fifo -> "fifo")
                      a.Hare_proto.Types.a_size a.Hare_proto.Types.a_dist
                | [ "spawn"; n ] ->
                    if not (Posix.exists p "/shell") then
                      Posix.mkdir p ~dist:true "/shell";
                    let pids =
                      List.init (int_of_string n) (fun i ->
                          Posix.spawn p ~prog:"shell-worker"
                            ~args:[ string_of_int i ])
                    in
                    List.iter
                      (fun pid ->
                        Printf.printf "pid %d -> exit %d
" pid
                          (Posix.waitpid p pid))
                      pids
                | [ "time" ] ->
                    Printf.printf "%.3f simulated ms
"
                      (Machine.seconds m *. 1000.0)
                | _ -> print_endline "unknown command; try 'help'"
              with Hare_proto.Errno.Error (e, ctx) ->
                Printf.printf "error: %s (%s)
" (Hare_proto.Errno.to_string e)
                  ctx)
        done;
        0)
  in
  Machine.run m;
  ignore init;
  0

let shell_cmd =
  Cmd.v
    (Cmd.info "shell"
       ~doc:
         "Interactive shell on a live simulated Hare machine (reads \
          commands from stdin; try 'help').")
    Term.(const run_shell $ cores_arg)

(* ---------- faults command ---------------------------------------------- *)

(* Run a workload on Hare under a fault plan and report the robustness
   counters: what the injector did to the messages, and what the retry
   and crash-recovery machinery did about it. *)
let run_faults name plan deadline retries seed cores nprocs scale strict =
  let spec = find_spec name in
  let m, status =
    run_spec ?nprocs ~scale
      {
        (base_config spec cores) with
        Config.fault_plan = plan;
        rpc_deadline = deadline_for ~plan deadline;
        rpc_retries = retries;
        partial_broadcast = not strict;
        seed = Int64.of_int seed;
      }
      spec
  in
  let failed = workers_failed ~why:" (gave up under faults)" status in
  Printf.printf "%s under plan %S: %.6f simulated seconds, %d RPCs\n"
    spec.Spec.name plan (Machine.seconds m) (Machine.total_rpcs m);
  counter_table "robustness counter" "count"
    (Hare_stats.Robust.to_list (Machine.robustness m));
  if failed then 1 else 0

let faults_cmd =
  let strict =
    flag "strict-broadcast"
      "Fail broadcasts with EIO instead of returning partial results."
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run one benchmark on Hare under a deterministic fault plan and \
          print the robustness counters.")
    Term.(
      const run_faults $ bench_arg ()
      $ plan_arg
          "Fault plan, e.g. \
           'drop:fs:0.05;dup:fs1:0.02;crash:1@200000+150000'. Empty runs \
           fault-free."
      $ deadline_arg Arg.(some int) None
      $ retries_arg 12
      $ seed_arg ~doc:"Simulation seed; same seed + plan => identical faults." ()
      $ cores_arg $ nprocs_arg () $ scale_arg $ strict)

(* ---------- overload command -------------------------------------------- *)

(* Drive the open-loop overload workload with the flow-control, load-shed,
   retry-budget and circuit-breaker knobs open, and report how gracefully
   the machine degrades: goodput vs. offered load, shed / fast-fail
   counts, breaker transitions, and per-class latency percentiles from
   the trace spans. Optionally runs under the coherence sanitizer and a
   fault plan (a server crash is what trips the breakers). *)
let run_overload cores split nprocs scale period deadline retries deadline_max
    capacity budget breaker cooldown watermark seed plan check =
  let module O = Hare_workloads.Overload in
  let spec = O.spec in
  let config =
    {
      (base_config spec cores) with
      Config.placement = Config.Split split;
      trace_enabled = true;
      check_enabled = check;
      fault_plan = plan;
      rpc_deadline = deadline;
      rpc_retries = retries;
      rpc_deadline_max = deadline_max;
      deadline_propagation = deadline > 0;
      mailbox_capacity = capacity;
      retry_budget = budget;
      breaker_threshold = breaker;
      breaker_cooldown = cooldown;
      shed_watermark = watermark;
      seed = Int64.of_int seed;
    }
  in
  (* Open-loop saturation needs more synchronous workers than app
     cores: each worker has at most one request outstanding. *)
  let nprocs = match nprocs with Some n -> n | None -> 3 * cores in
  O.reset ();
  O.period := period;
  let m, status = run_spec ~nprocs ~scale config spec in
  let failed = workers_failed status in
  let secs = Machine.seconds m in
  Printf.printf
    "overload: %d cores (%d server), %d workers, mean period %d cycles, \
     %.6f simulated seconds\n"
    cores split nprocs period secs;
  Printf.printf "  sent %d | ok %d | shed %d | fast-fail %d | skipped %d\n"
    !O.sent !O.ok !O.shed !O.fast_fail !O.skipped;
  if secs > 0. && !O.sent > 0 then
    Printf.printf "  goodput %.0f ops/s of %.0f offered (%.1f%% completed)\n"
      (float_of_int !O.ok /. secs)
      (float_of_int !O.sent /. secs)
      (100. *. float_of_int !O.ok /. float_of_int !O.sent);
  counter_table "robustness counter" "count"
    (Hare_stats.Robust.to_list (Machine.robustness m));
  (match Machine.trace m with
  | None -> ()
  | Some tr -> (
      match Driver.latencies_of_trace tr with
      | [] -> ()
      | dists ->
          Hare_stats.Table.print
            ~headers:[ "class"; "n"; "p50"; "p95"; "p99"; "max" ]
            (List.map
               (fun (cls, d) ->
                 [
                   cls;
                   string_of_int d.Hare_stats.Latency.n;
                   Int64.to_string d.Hare_stats.Latency.p50;
                   Int64.to_string d.Hare_stats.Latency.p95;
                   Int64.to_string d.Hare_stats.Latency.p99;
                   Int64.to_string d.Hare_stats.Latency.lmax;
                 ])
               dists)));
  let violations =
    match Machine.check m with
    | None -> 0
    | Some chk ->
        let stats = Check.stats chk in
        counter_table "rule" "violations" (Sanity.violations stats);
        list_violations (Check.violations chk);
        Sanity.total_violations stats
  in
  if violations > 0 then begin
    print_endline "FAIL: coherence/protocol violations under overload";
    1
  end
  else if failed then 1
  else 0

let overload_cmd =
  Cmd.v
    (Cmd.info "overload"
       ~doc:
         "Drive the open-loop overload workload past saturation with the \
          flow-control, shedding, retry-budget and circuit-breaker knobs \
          open; print goodput, shed/fast-fail counts, breaker transitions \
          and per-class latency percentiles.")
    Term.(
      const run_overload $ cores_arg
      $ split_arg ~doc:"Cores dedicated to file servers (the bottleneck)."
          Arg.int 1
      $ nprocs_arg ~doc:"Worker processes (default: three per core)." ()
      $ scale_arg
      $ int_opt "period" 30_000 "CYCLES"
          "Mean inter-arrival gap per worker; smaller means a hotter \
           offered load."
      $ deadline_arg
          ~doc:"First-attempt RPC deadline in cycles; 0 disables retries."
          Arg.int 60_000
      $ retries_arg 6
      $ int_opt "deadline-max" 240_000 "CYCLES"
          "Ceiling on the backed-off retry deadline."
      $ int_opt "capacity" 24 "N"
          "Server mailbox capacity; senders without a credit park until a \
           slot frees (0 = unbounded)."
      $ int_opt "budget" 12 "N"
          "Per-server retry budget; an empty bucket turns timeouts into \
           immediate give-ups (0 = unlimited)."
      $ int_opt "breaker" 6 "N"
          "Consecutive give-ups that open a per-server circuit breaker (0 = \
           disabled)."
      $ int_opt "cooldown" 150_000 "CYCLES"
          "How long an open breaker fast-fails before probing."
      $ int_opt "watermark" 8 "N"
          "Server queue depth above which background (then data) requests \
           are shed with EBUSY (0 = disabled)."
      $ seed_arg ~doc:"Simulation seed; arrivals are deterministic per seed." ()
      $ plan_arg
          "Fault plan, e.g. 'crash:0@2000000+500000' — a server crash under \
           load is what trips the circuit breakers."
      $ check_flag)

(* ---------- perf command ------------------------------------------------ *)

(* Run a workload with the pipelining/batching/extent knobs set from the
   command line and print the Perf counters: window high-water mark,
   batch-size histogram, extent-lease hit rate (PR 2). *)
let run_perf name cores nprocs scale window batch extent dcap =
  let spec = find_spec name in
  let config =
    {
      (base_config spec cores) with
      Config.rpc_window = window;
      batch_max = batch;
      alloc_extent = extent;
      dircache_capacity = dcap;
    }
  in
  let m, _ = run_spec ?nprocs ~scale config spec in
  let cycles =
    Machine.seconds m
    *. float_of_int config.Config.costs.Hare_config.Costs.cycles_per_us
    *. 1e6
  in
  Printf.printf
    "%s: window=%d batch=%d extent=%d: %.0f simulated cycles, %d RPCs\n"
    spec.Spec.name window batch extent cycles (Machine.total_rpcs m);
  let perf = Machine.perf m in
  counter_table "perf counter" "value" (Hare_stats.Perf.to_list perf);
  Format.printf "batch-size histogram: %a@." Hare_stats.Perf.pp_hist perf;
  Format.printf "mean batch %.2f, lease hit rate %.2f@."
    (Hare_stats.Perf.mean_batch perf)
    (Hare_stats.Perf.lease_hit_rate perf);
  let evictions =
    Array.fold_left
      (fun n c ->
        n + Hare_client.Dircache.evictions (Hare_client.Client.dircache c))
      0 (Machine.clients m)
  in
  Printf.printf "dircache evictions: %d\n" evictions;
  0

let perf_cmd =
  let dcap_arg =
    int_opt "dircache-capacity" 0 "N" "Bound the client dircache (0 = unbounded)."
  in
  Cmd.v
    (Cmd.info "perf"
       ~doc:
         "Run one benchmark with the PR 2 pipelining knobs and print the \
          perf counters (window depth, batch histogram, lease hit rate).")
    Term.(
      const run_perf $ bench_arg () $ cores_arg $ nprocs_arg () $ scale_arg
      $ window_arg 8 $ batch_arg 8 $ extent_arg 8 $ dcap_arg)

(* ---------- trace / profile commands ------------------------------------ *)

module Trace = Hare_trace.Trace

(* Run the whole workload (setup included) with tracing on and hand back
   the machine and its trace sink. Shared by `trace` (span export) and
   `profile` (cycle attribution). *)
let run_traced ?(metrics = 0) name cores nprocs scale cap seed =
  let spec = find_spec name in
  let m, _ =
    run_spec ?nprocs ~scale
      {
        (base_config spec cores) with
        Config.trace_enabled = true;
        trace_cap = cap;
        metrics_interval = metrics;
        seed = Int64.of_int seed;
      }
      spec
  in
  match Machine.trace m with
  | Some tr -> (spec, m, tr)
  | None ->
      prerr_endline "internal error: trace sink missing";
      exit 1

let trace_seed_arg =
  seed_arg ~doc:"Simulation seed; same seed => byte-identical trace." ()

(* Dropped ring events mean the export is missing the oldest spans:
   shout on stderr so a truncated artifact is never mistaken for a
   complete one, and fail outright under --strict. *)
let dropped_verdict ~strict tr =
  let d = Trace.dropped tr in
  if d = 0 then 0
  else begin
    Printf.eprintf
      "WARNING: %d trace event(s) dropped by ring rotation — this export \
       is incomplete (raise --trace-cap)\n"
      d;
    if strict then begin
      Printf.eprintf "--strict: failing on dropped events\n";
      1
    end
    else 0
  end

let run_trace name out cores nprocs scale cap metrics seed strict =
  let spec, m, tr = run_traced ~metrics name cores nprocs scale cap seed in
  let json = Trace.to_chrome_json tr in
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc json);
  Printf.printf
    "%s: %.6f simulated seconds; %d events on %d tracks (%d dropped) -> %s\n"
    spec.Spec.name (Machine.seconds m)
    (List.length (Trace.events tr))
    (List.length (Trace.tracks tr))
    (Trace.dropped tr) out;
  if not (Trace.ring_enabled tr) then
    print_endline
      "span ring empty by request (--trace-cap 0): metadata-only export"
  else print_endline "open in https://ui.perfetto.dev or chrome://tracing";
  dropped_verdict ~strict tr

let trace_cmd =
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the Chrome trace-event JSON.")
  in
  let metrics_arg =
    int_opt "metrics" 0 "CYCLES"
      "Also sample the telemetry gauges every $(docv) simulated cycles, \
       mirrored as Perfetto counter tracks (metric:*) in the export (0 = \
       off)."
  in
  let strict_arg =
    flag "strict" "Exit 1 when any trace events were dropped by ring rotation."
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one benchmark with span tracing on and export a \
          Perfetto-compatible (Chrome trace-event) JSON file: one track \
          per core plus a DRAM track, with counter tracks for CPU \
          busy, mailbox depth, cache misses and DRAM traffic (and, with \
          $(b,--metrics), the telemetry gauges).")
    Term.(
      const run_trace $ bench_arg () $ out_arg $ cores_arg $ nprocs_arg ()
      $ scale_arg $ cap_arg $ metrics_arg $ trace_seed_arg $ strict_arg)

let run_profile name cores nprocs scale cap seed =
  let spec, m, tr = run_traced name cores nprocs scale cap seed in
  let rows = Trace.profile tr in
  let grand = ref 0L in
  let per_bucket = Array.make Trace.nbuckets 0L in
  List.iter
    (fun (r : Trace.row) ->
      grand := Int64.add !grand r.Trace.r_total;
      Array.iteri
        (fun i c -> per_bucket.(i) <- Int64.add per_bucket.(i) c)
        r.Trace.r_buckets)
    rows;
  Printf.printf "%s: %.6f simulated seconds, %Ld attributed cycles\n"
    spec.Spec.name (Machine.seconds m) !grand;
  Hare_stats.Table.print
    ~headers:([ "op"; "count"; "cycles" ] @ Trace.bucket_names)
    (List.map
       (fun (r : Trace.row) ->
         [ r.Trace.r_op; string_of_int r.Trace.r_count;
           Int64.to_string r.Trace.r_total ]
         @ Array.to_list (Array.map Int64.to_string r.Trace.r_buckets))
       rows
    @ [
        [ "TOTAL"; ""; Int64.to_string !grand ]
        @ Array.to_list (Array.map Int64.to_string per_bucket);
      ]);
  let bucket_sum = Array.fold_left Int64.add 0L per_bucket in
  Printf.printf "unattributed cycles: %Ld (of %Ld)\n"
    (Int64.sub !grand bucket_sum)
    !grand;
  (* The profile is accumulated at every span close, outside the ring,
     so ring rotation leaves it complete: report the drops, but they are
     no reason to warn or fail here. *)
  let d = Trace.dropped tr in
  if d > 0 then
    Printf.printf
      "trace ring: %d event(s) dropped by rotation; the profile does not \
       read the ring and is complete\n"
      d;
  if Int64.sub !grand bucket_sum <> 0L then 1 else 0

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run one benchmark with span tracing on and print where the \
          cycles went, per opcode: compute, send, queue-wait, dispatch, \
          cache and DRAM buckets that sum exactly to each op's elapsed \
          cycles.")
    Term.(
      const run_profile $ bench_arg () $ cores_arg $ nprocs_arg () $ scale_arg
      $ cap_arg $ trace_seed_arg)

(* ---------- metrics command --------------------------------------------- *)

module Metrics = Hare_metrics.Metrics
module Knee = Hare_metrics.Knee
module Blame = Hare_metrics.Blame

(* Run one benchmark with the PR 9 telemetry on — the gauge sampler on a
   fixed simulated-cycle grid plus tail-based span retention — and
   report the time series (per-gauge summary table, optional raw JSON
   dump), the saturation knee, and with --blame the per-class
   tail-latency forensics. *)
let run_metrics name cores split nprocs scale interval retain cap blame out
    seed =
  let spec = find_spec name in
  if interval <= 0 then begin
    Printf.eprintf "--interval must be positive\n";
    exit 1
  end;
  let m, _ =
    run_spec ?nprocs ~scale
      {
        (placement_of split (base_config spec cores)) with
        Config.trace_enabled = true;
        trace_cap = cap;
        trace_retain = retain;
        metrics_interval = interval;
        seed = Int64.of_int seed;
      }
      spec
  in
  match Machine.metrics m with
  | None ->
      prerr_endline "internal error: metrics registry missing";
      1
  | Some mt ->
      Printf.printf
        "%s: %.6f simulated seconds; %d gauges sampled every %d cycles (%d \
         samples, %d overwritten)\n"
        spec.Spec.name (Machine.seconds m) (Metrics.ngauges mt)
        (Metrics.interval mt) (Metrics.samples mt) (Metrics.dropped mt);
      Hare_stats.Table.print
        ~headers:[ "gauge"; "n"; "min"; "max"; "mean"; "last" ]
        (List.map
           (fun (g : Metrics.summary) ->
             [
               g.Metrics.s_name;
               string_of_int g.Metrics.s_n;
               string_of_int g.Metrics.s_min;
               string_of_int g.Metrics.s_max;
               Printf.sprintf "%.1f" g.Metrics.s_mean;
               string_of_int g.Metrics.s_last;
             ])
           (Metrics.summaries mt));
      (match Machine.trace m with
      | Some tr -> (
          let spans =
            List.map
              (fun (_, t0, dur) -> (Int64.to_int t0, Int64.to_int dur))
              (Trace.root_spans tr)
          in
          match Knee.detect ~window:(8 * interval) spans with
          | Some k ->
              Printf.printf
                "knee: p99 left the flat regime at cycle %d (window %d: %Ld \
                 -> %Ld cycles over %d judged windows)\n"
                k.Knee.k_at k.Knee.k_window k.Knee.k_before k.Knee.k_after
                k.Knee.k_windows
          | None -> print_endline "knee: none (p99 stayed flat)")
      | None -> ());
      (if blame then
         match Machine.trace m with
         | None -> ()
         | Some tr -> (
             match Blame.of_trace tr with
             | [] ->
                 print_endline
                   "blame: nothing retained (is --retain positive and the \
                    run long enough?)"
             | reports ->
                 print_newline ();
                 Hare_stats.Table.print
                   ~headers:
                     [ "class"; "n"; "p99"; "bucket"; "srv";
                       "qdepth mean/max"; "worst op"; "worst cycles" ]
                   (List.map
                      (fun (b : Blame.t) ->
                        [
                          b.Blame.b_class;
                          string_of_int b.Blame.b_n;
                          Int64.to_string b.Blame.b_p99;
                          Printf.sprintf "%s (%.0f%%)" b.Blame.b_bucket
                            (100. *. b.Blame.b_bucket_share);
                          (if b.Blame.b_srv < 0 then "-"
                           else
                             Printf.sprintf "fs%d (%.0f%%)" b.Blame.b_srv
                               (100. *. b.Blame.b_srv_share));
                          (if b.Blame.b_qdepth_max < 0 then "-"
                           else
                             Printf.sprintf "%.1f/%d" b.Blame.b_qdepth_mean
                               b.Blame.b_qdepth_max);
                          b.Blame.b_worst_op;
                          string_of_int b.Blame.b_worst_dur;
                        ])
                      reports);
                 (* Critical path of the slowest retained op overall: the
                    exact bucket decomposition of its cycles. *)
                 match Trace.retained tr with
                 | [] -> ()
                 | worst :: _ ->
                     Printf.printf
                       "\ncritical path of slowest op (%s, %d cycles):\n"
                       worst.Trace.rt_op worst.Trace.rt_dur;
                     List.iter
                       (fun (bucket, cy) ->
                         Printf.printf "  %-10s %10d  (%.0f%%)\n" bucket cy
                           (100. *. float_of_int cy
                           /. float_of_int (max 1 worst.Trace.rt_dur)))
                       (Blame.critical_path worst)));
      (match out with
      | None -> ()
      | Some file ->
          (* Raw time series as JSON: one [stamp, value] pair array per
             gauge, on the sampling grid. *)
          let buf = Buffer.create 4096 in
          let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
          add "{\n";
          add "  \"schema\": \"hare-metrics/1\",\n";
          add "  \"interval\": %d,\n" (Metrics.interval mt);
          add "  \"samples\": %d,\n" (Metrics.samples mt);
          add "  \"dropped\": %d,\n" (Metrics.dropped mt);
          add "  \"series\": {\n";
          let series = Metrics.series mt in
          List.iteri
            (fun i (gname, points) ->
              add "    \"%s\": [ " gname;
              List.iteri
                (fun j (ts, v) ->
                  add "%s[%d, %d]" (if j > 0 then ", " else "") ts v)
                points;
              add " ]%s\n" (if i < List.length series - 1 then "," else ""))
            series;
          add "  }\n";
          add "}\n";
          Out_channel.with_open_bin file (fun oc ->
              Out_channel.output_string oc (Buffer.contents buf));
          Printf.printf "wrote %s\n" file);
      0

let metrics_cmd =
  let interval_arg =
    int_opt "interval" 20_000 "CYCLES" "Sampling grid in simulated cycles."
  in
  let retain_arg =
    int_opt "retain" 32 "K"
      "Keep the complete span trees of the $(docv) slowest ops per latency \
       class for the blame report (0 = off)."
  in
  let blame_flag =
    flag "blame"
      "Print the per-class tail-latency blame report (dominant bucket, \
       dominant server, queue depth at admission) and the slowest op's \
       critical path."
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also dump the raw per-gauge time series as JSON.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one benchmark with continuous time-series telemetry: gauges \
          (queue depths, credits, breakers, sheds, retries, cache hit \
          rate, live fibers, load imbalance) sampled on a simulated-cycle \
          grid, the saturation knee of the latency series, and with \
          $(b,--blame) the tail-latency forensics from retained span \
          trees. Sampling is zero-perturbation: the simulated clock is \
          bit-identical with telemetry on or off.")
    Term.(
      const run_metrics
      $ bench_arg ~default:"overload"
          ~doc:"Benchmark name (see `hare_cli list`; default: overload)." ()
      $ cores_arg
      $ split_arg Arg.(some int) None
      $ nprocs_arg () $ scale_arg $ interval_arg $ retain_arg $ cap_arg
      $ blame_flag $ out_arg $ trace_seed_arg)

(* ---------- check command ----------------------------------------------- *)

(* Run workloads under the coherence sanitizer. Each workload runs twice
   — checker off, then checker on with the same seed — so the
   zero-perturbation contract is verified on every invocation: the two
   simulated clocks must be bit-identical. Exit code contract: 0 = all
   runs clean; 1 = the sanitizer recorded violations; 2 = the checker
   itself perturbed the simulation (a sanitizer bug). *)
let run_check name plan deadline retries seed cores nprocs scale window batch
    extent verbose =
  let specs =
    if name = "all" then Hare_workloads.All.specs else [ find_spec name ]
  in
  let run_one spec ~enabled =
    run_spec ?nprocs ~scale
      {
        (base_config spec cores) with
        Config.fault_plan = plan;
        rpc_deadline = deadline_for ~plan deadline;
        rpc_retries = retries;
        rpc_window = window;
        batch_max = batch;
        alloc_extent = extent;
        check_enabled = enabled;
        seed = Int64.of_int seed;
      }
      spec
  in
  let total = Sanity.create () in
  let perturbed = ref false in
  let recorded = ref [] in
  List.iter
    (fun (spec : Spec.t) ->
      let wname = spec.Spec.name in
      let off, _ = run_one spec ~enabled:false in
      let on, status = run_one spec ~enabled:true in
      ignore (workers_failed ~prefix:(wname ^ ": ") status);
      if Machine.now off <> Machine.now on then begin
        perturbed := true;
        Printf.printf "%s: PERTURBED: %Ld cycles unchecked vs %Ld checked\n"
          wname (Machine.now off) (Machine.now on)
      end
      else
        Printf.printf
          "%s: %.6f simulated seconds, clock identical with checking on\n"
          wname (Machine.seconds on);
      match Machine.check on with
      | None -> ()
      | Some chk ->
          Sanity.merge ~into:total (Check.stats chk);
          recorded := !recorded @ Check.violations chk)
    specs;
  counter_table "rule" "violations" (Sanity.violations total);
  if verbose then counter_table "checker counter" "value" (Sanity.to_list total);
  list_violations !recorded;
  if !perturbed then begin
    print_endline "FAIL: the sanitizer perturbed the simulation";
    2
  end
  else if Sanity.total_violations total > 0 then begin
    print_endline "FAIL: coherence/protocol violations detected";
    1
  end
  else begin
    print_endline "OK: no violations, zero perturbation";
    0
  end

let check_cmd =
  let verbose = flag "verbose" "Also print the checker's event counters." in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run benchmarks under the coherence sanitizer: vector-clock race \
          detection over the simulated caches plus Hare protocol lint \
          rules. Each workload runs twice (checker off/on) to prove the \
          checker is zero-perturbation. Exit 0: clean; 1: violations; 2: \
          the checker perturbed the simulation.")
    Term.(
      const run_check
      $ bench_arg ~doc:"Benchmark name (see `hare_cli list`), or 'all'." ()
      $ plan_arg
          "Fault plan to check under, e.g. \
           'drop:fs:0.05;crash:1@200000+150000'. Empty runs fault-free."
      $ deadline_arg Arg.(some int) None
      $ retries_arg 12
      $ seed_arg ~doc:"Simulation seed (both runs of each pair share it)." ()
      $ cores_arg $ nprocs_arg () $ scale_arg $ window_arg 1 $ batch_arg 1
      $ extent_arg 1 $ verbose)

(* ---------- shard command ----------------------------------------------- *)

(* Run a workload on a Sharded machine and dump the placement ring: which
   physical server hosts which logical homes (and how much state), plus
   the migration counters a membership plan produced. *)
let run_shard name cores servers vnodes plan nprocs scale seed check =
  let module Place = Hare_place.Place in
  let module Server = Hare_server.Server in
  let spec = find_spec name in
  let m, status =
    run_spec ?nprocs ~scale
      {
        (base_config spec cores) with
        Config.placement = Config.Sharded { servers; vnodes };
        shard_plan = plan;
        check_enabled = check;
        seed = Int64.of_int seed;
      }
      spec
  in
  ignore (workers_failed status);
  let place =
    match Machine.place m with Some p -> p | None -> assert false
  in
  Printf.printf
    "ring: %d logical homes x %d vnodes over %d physical servers (epoch %d)\n"
    (Place.nhomes place) (Place.vnodes place) (Place.nphys place)
    (Place.epoch place);
  Printf.printf "%.6f simulated seconds; load imbalance (max/mean ops) %.2f\n\n"
    (Machine.seconds m) (Machine.imbalance m);
  let loads = Machine.server_loads m in
  Hare_stats.Table.print
    ~headers:
      [ "srv"; "state"; "homes"; "inodes"; "dentries"; "ops"; "peak-q"; "in";
        "out"; "bounced" ]
    (Array.to_list (Machine.servers m)
    |> List.map (fun s ->
           let sid = Server.sid s in
           let ops, peak =
             match
               List.assoc_opt sid (List.map (fun (i, o, q) -> (i, (o, q))) loads)
             with
             | Some (o, q) -> (o, q)
             | None -> (0, 0)
           in
           [
             Printf.sprintf "fs%d" sid;
             (if Place.active place sid then "active" else "retired");
             String.concat "," (List.map string_of_int (Server.hosted_homes s));
             string_of_int (Server.inode_count s);
             string_of_int (Server.dentry_count s);
             string_of_int ops;
             string_of_int peak;
             string_of_int (Server.homes_migrated_in s);
             string_of_int (Server.homes_migrated_out s);
             string_of_int (Server.moved_rejects s);
           ]));
  print_newline ();
  (* Vnode layout: each home's current route and its rendezvous weight
     there (the argmax over the active servers' points). *)
  Hare_stats.Table.print
    ~headers:[ "home"; "srv"; "weight" ]
    (List.init (Place.nhomes place) (fun h ->
         let srv = Place.phys place h in
         [
           string_of_int h;
           Printf.sprintf "fs%d" srv;
           Printf.sprintf "%08x"
             (Place.weight place ~home:h ~srv land 0xffffffff);
         ]));
  Printf.printf
    "\nmigrations: %d moved, %d aborted; clients chased %d EMOVED bounce(s)\n"
    (Place.migrations place) (Place.aborted place)
    (Machine.total_moved_retries m);
  match Machine.check m with
  | None -> 0
  | Some chk ->
      let total = Sanity.total_violations (Check.stats chk) in
      if total > 0 then begin
        Printf.printf "sanitizer: %d violation(s)\n" total;
        1
      end
      else begin
        print_endline "sanitizer: clean";
        0
      end

let shard_cmd =
  let servers_arg = int_opt "servers" 4 "S" "Logical file-server homes." in
  let ring_plan_arg =
    Arg.(
      value & opt string ""
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:
            "Ring-membership plan: 'add@CYCLES' activates a spare physical \
             server, 'remove:SID@CYCLES' drains one; ';'-separated.")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run a benchmark under consistent-hash (Sharded) placement and dump \
          the ring: per-server home ownership, inode/dentry counts, load and \
          queue depth, the vnode layout, and migration counters. With \
          $(b,--plan), servers are added/removed mid-run and whole homes \
          migrate live between physical servers.")
    Term.(
      const run_shard
      $ bench_arg ~default:"creates"
          ~doc:"Benchmark to drive the ring (default: creates)." ()
      $ cores_arg $ servers_arg $ vnodes_arg $ ring_plan_arg $ nprocs_arg ()
      $ scale_arg $ seed_arg ~docv:"N" () $ check_flag)

(* ---------- explore: systematic schedule exploration --------------------- *)

let run_explore list_only scenario strategy seed budget mutate replay =
  let module R = Hare_explore.Runner in
  let module S = Hare_explore.Scenario in
  let bad_args msg =
    prerr_endline msg;
    2
  in
  let strategy =
    match replay with
    | Some csv ->
        let fields =
          String.split_on_char ',' csv |> List.filter (fun s -> s <> "")
        in
        let ords =
          List.filter_map
            (fun s ->
              match int_of_string_opt s with
              | Some n when n >= 0 -> Some n
              | _ -> None)
            fields
        in
        if List.length ords = List.length fields then Ok (R.Replay ords)
        else
          Error
            (Printf.sprintf
               "bad --replay %S (comma-separated choice ordinals, each >= 0)"
               csv)
    | None -> (
        match strategy with
        | "dpor" -> Ok R.Dpor
        | "pct" -> Ok (R.Pct seed)
        | "rand" -> Ok (R.Rand seed)
        | "det" -> Ok R.Deterministic
        | s -> Error ("unknown strategy " ^ s ^ " (dpor, pct, rand, det)"))
  in
  if list_only then begin
    print_endline "scenarios:";
    List.iter
      (fun sc -> Printf.printf "  %-8s %s\n" sc.S.sc_name sc.S.sc_doc)
      S.all;
    print_endline "mutations (--mutate):";
    List.iter (fun m -> Printf.printf "  %s\n" m) S.mutations;
    0
  end
  else
    match (S.find scenario, mutate, strategy) with
    | exception Not_found ->
        bad_args
          (Printf.sprintf
             "unknown scenario %S (hare_cli explore --list shows them)" scenario)
    | _, Some m, _ when not (List.mem m S.mutations) ->
        bad_args
          (Printf.sprintf
             "unknown mutation %S (hare_cli explore --list shows them)" m)
    | _, _, Error msg -> bad_args msg
    | sc, _, Ok strategy ->
        let st = R.explore ~scenario:sc ?mutate ~strategy ~budget () in
        Printf.printf
          "%s strategy=%s%s: %d schedule(s), %d choice point(s), depth %d, \
           %d sleep-set prune(s)%s\n"
          sc.S.sc_name (R.strategy_name strategy)
          (match mutate with Some m -> " mutate=" ^ m | None -> "")
          st.R.schedules st.R.choice_points st.R.max_depth st.R.sleep_blocked
          (if st.R.complete then ", exhaustive" else "");
        List.iter
          (fun (v : R.violation) ->
            Printf.printf "VIOLATION [%s]\n%s\n" v.R.v_kind v.R.v_detail;
            Printf.printf "  reproduce: hare_cli explore %s%s --replay %s\n"
              sc.S.sc_name
              (match mutate with Some m -> " --mutate " ^ m | None -> "")
              (match v.R.v_choices with
              | [] -> "0"
              | cs -> String.concat "," (List.map string_of_int cs)))
          st.R.violations;
        if st.R.violations = [] then begin
          print_endline "no violations";
          0
        end
        else 1

let explore_cmd =
  let scenario_arg =
    Arg.(
      value
      & pos 0 string "collide"
      & info [] ~docv:"SCENARIO"
          ~doc:"Exploration scenario (see $(b,--list)).")
  in
  let strategy_arg =
    Arg.(
      value & opt string "dpor"
      & info [ "strategy" ] ~docv:"STRAT"
          ~doc:
            "Schedule strategy: $(b,dpor) (exhaustive, sleep-set reduced), \
             $(b,pct) (seeded random priorities), $(b,rand) (seeded uniform), \
             $(b,det) (the engine's deterministic order; one run).")
  in
  let budget_arg =
    int_opt "budget" 500 "N" "Maximum executions before giving up."
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"M"
          ~doc:"Run with a seeded protocol mutation switched on.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"CSV"
          ~doc:
            "Replay one schedule: comma-separated choice ordinals as printed \
             in a violation report (overrides $(b,--strategy)).")
  in
  let list_flag = flag "list" "List scenarios and mutations, then exit." in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Systematically explore same-cycle event orderings of a tiny \
          workload, checking every schedule with the coherence sanitizer and \
          a close-to-open linearizability oracle. Exit 0: clean; 1: \
          violation found (with a $(b,--replay) recipe); 2: bad arguments.")
    Term.(
      const run_explore $ list_flag $ scenario_arg $ strategy_arg
      $ seed_arg ~docv:"N" ~doc:"Seed for pct/rand strategies." ()
      $ budget_arg $ mutate_arg $ replay_arg)

(* ---------- list command ------------------------------------------------ *)

let run_list () =
  List.iter
    (fun (s : Spec.t) ->
      Printf.printf "%-14s (%s placement%s)\n" s.Spec.name
        (match s.Spec.exec_policy with
        | Config.Random_placement -> "random"
        | Config.Round_robin -> "round-robin")
        (if s.Spec.uses_dist then ", distributed dirs" else ""))
    Hare_workloads.All.specs;
  0

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List available benchmarks.")
    Term.(const run_list $ const ())

let main =
  Cmd.group
    (Cmd.info "hare_cli" ~version:"1.0"
       ~doc:
         "Hare, a file system for non-cache-coherent multicores, in \
          simulation: benchmarks and paper-figure reproduction.")
    [
      bench_cmd; fig_cmd; faults_cmd; overload_cmd; perf_cmd; trace_cmd;
      profile_cmd; metrics_cmd; check_cmd; shard_cmd; explore_cmd; list_cmd;
      shell_cmd;
    ]

let () = exit (Cmd.eval' main)
