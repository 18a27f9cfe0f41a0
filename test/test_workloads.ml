(* Every paper benchmark must run to completion on every world — the
   reproduction of the paper's "runs unmodified POSIX applications"
   claim — and report sane measurements. *)

module Spec = Hare_workloads.Spec
module Driver = Hare_experiments.Driver
module World = Hare_experiments.World
module HareD = Driver.Make (World.Hare_w)
module LinuxD = Driver.Make (World.Linux_w)

let config = Driver.default_config ~ncores:4

let check_result (r : Driver.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s elapsed > 0" r.Driver.world r.Driver.bench)
    true
    (r.Driver.elapsed > 0.0);
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s throughput > 0" r.Driver.world r.Driver.bench)
    true
    (r.Driver.throughput > 0.0)

let hare_case (spec : Spec.t) () = check_result (HareD.run ~config spec)

let linux_case (spec : Spec.t) () = check_result (LinuxD.run ~config spec)

let unfs_case () =
  let cfg = World.unfs_config (Driver.default_config ~ncores:2) in
  let r = HareD.run ~config:cfg ~nprocs:1 (Hare_workloads.All.find "creates") in
  check_result r;
  (* loopback messaging must make it much slower than plain hare *)
  let plain =
    HareD.run
      ~config:(Driver.default_config ~ncores:2)
      ~nprocs:1
      (Hare_workloads.All.find "creates")
  in
  Alcotest.(check bool)
    (Printf.sprintf "unfs (%.0f ops/s) slower than hare (%.0f ops/s)"
       r.Driver.throughput plain.Driver.throughput)
    true
    (r.Driver.throughput < plain.Driver.throughput)

let scaling_sanity () =
  (* More cores must not make the trivially-parallel benchmark slower. *)
  let one =
    HareD.run ~config:(Driver.default_config ~ncores:1) ~nprocs:1
      (Hare_workloads.All.find "creates")
  in
  let four =
    HareD.run ~config:(Driver.default_config ~ncores:4) ~nprocs:4
      (Hare_workloads.All.find "creates")
  in
  Alcotest.(check bool)
    (Printf.sprintf "4-core (%.0f) beats 1-core (%.0f)" four.Driver.throughput
       one.Driver.throughput)
    true
    (four.Driver.throughput > one.Driver.throughput)

let dist_off_still_correct () =
  let cfg =
    { (Driver.default_config ~ncores:4) with
      Hare_config.Config.dir_distribution = false;
      dir_broadcast = false;
      direct_access = false;
      dir_cache = false;
      creation_affinity = false
    }
  in
  check_result (HareD.run ~config:cfg (Hare_workloads.All.find "mailbench"))

(* Golden simulated clocks: every workload's timed region, in cycles,
   for the default seed. The engine overhaul (fiber pruning, probe
   slots, flat attribution contexts, [Sleep_cycles]) is host-side only;
   any change to these numbers means a scheduling-order perturbation
   leaked into the simulation, which would silently invalidate every
   figure. Regenerate deliberately (and say why in the commit) with the
   formula below if a simulated-cost change is intended. *)
let golden_clocks =
  [
    ("creates", 4, 1, 1, 1, 6447400L);
    ("writes", 4, 1, 1, 1, 4791250L);
    ("renames", 4, 1, 1, 1, 3045100L);
    ("directories", 4, 1, 1, 1, 6868050L);
    ("rm dense", 4, 1, 1, 1, 15646950L);
    ("rm sparse", 4, 1, 1, 1, 3793800L);
    ("pfind dense", 4, 1, 1, 1, 30209420L);
    ("pfind sparse", 4, 1, 1, 1, 9425410L);
    ("extract", 4, 1, 1, 1, 1931535L);
    ("punzip", 4, 1, 1, 1, 1650172L);
    ("mailbench", 4, 1, 1, 1, 9496882L);
    ("fsstress", 4, 1, 1, 1, 7905119L);
    ("build linux", 4, 1, 1, 1, 142055979L);
    ("overload", 4, 1, 1, 1, 6286924L);
    ("creates", 4, 8, 8, 8, 5476600L);
    ("writes", 4, 8, 8, 8, 3790450L);
    ("creates", 8, 1, 1, 1, 6943200L);
    ("writes", 8, 1, 1, 1, 5880650L);
    (* 64 cores: enough pending events that the event queue wraps its
       4,096-cycle wheel and spills to its overflow heap. *)
    ("creates", 64, 1, 1, 1, 9998900L);
    ("pfind dense", 64, 1, 1, 1, 113243285L);
  ]

let golden_determinism () =
  List.iter
    (fun (name, ncores, window, batch, extent, expect) ->
      let config =
        {
          (Driver.default_config ~ncores) with
          Hare_config.Config.rpc_window = window;
          batch_max = batch;
          alloc_extent = extent;
        }
      in
      let r = HareD.run ~config (Hare_workloads.All.find name) in
      let cycles =
        Int64.of_float
          (r.Driver.elapsed
           *. float_of_int
                config.Hare_config.Config.costs.Hare_config.Costs.cycles_per_us
           *. 1e6
          +. 0.5)
      in
      Alcotest.(check int64)
        (Printf.sprintf "%s @%d cores (window=%d batch=%d extent=%d)" name
           ncores window batch extent)
        expect cycles)
    golden_clocks

(* The exploration hook's zero-perturbation contract (PR 10): with a
   trivial explorer attached (always ordinal 0), every same-cycle tie is
   routed through the choice-point plumbing, yet the simulated clock
   must stay bit-identical to the unexplored golden value. *)
let golden_with_null_explorer () =
  let name, ncores, expect = ("creates", 4, 6447400L) in
  let config =
    {
      (Driver.default_config ~ncores) with
      Hare_config.Config.rpc_window = 1;
      batch_max = 1;
      alloc_extent = 1;
    }
  in
  let r =
    HareD.run ~config ~null_explorer:true (Hare_workloads.All.find name)
  in
  let cycles =
    Int64.of_float
      (r.Driver.elapsed
       *. float_of_int
            config.Hare_config.Config.costs.Hare_config.Costs.cycles_per_us
       *. 1e6
      +. 0.5)
  in
  Alcotest.(check int64) "creates @4 cores under a null explorer" expect cycles

(* The benchmark path ([run]: boot inside the driver) and the path
   hare_cli and the tests take (boot, then [exec]) share one run loop;
   on the same configuration they must end at the same cycle with the
   same whole-run op mix. [Recorded] keeps the machine [run] boots. *)
module Recorded = struct
  include World.Hare_w

  let last = ref None

  let boot c =
    let m = boot c in
    last := Some m;
    m
end

module RecordedD = Driver.Make (Recorded)

let run_and_exec_agree () =
  let spec = Hare_workloads.All.find "creates" in
  let config =
    {
      (Driver.default_config ~ncores:4) with
      Hare_config.Config.exec_policy = spec.Spec.exec_policy;
    }
  in
  ignore (RecordedD.run ~config spec);
  let via_run = Option.get !Recorded.last in
  let via_exec = Hare.Machine.boot config in
  let nprocs = List.length (Hare_config.Config.app_cores config) in
  Alcotest.(check (option int)) "exec: workers ok" (Some 0)
    (HareD.exec ~nprocs via_exec spec);
  Alcotest.(check int64) "same final clock" (Hare.Machine.now via_run)
    (Hare.Machine.now via_exec);
  Alcotest.(check (list (pair string int)))
    "same whole-run op mix"
    (Hare_stats.Opcount.to_list (Hare.Machine.total_syscalls via_run))
    (Hare_stats.Opcount.to_list (Hare.Machine.total_syscalls via_exec))

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "workloads.hare",
      List.map
        (fun (s : Spec.t) -> tc s.Spec.name `Quick (hare_case s))
        Hare_workloads.All.specs );
    ( "workloads.linux",
      List.map
        (fun (s : Spec.t) -> tc s.Spec.name `Quick (linux_case s))
        Hare_workloads.All.specs );
    ( "workloads.misc",
      [
        tc "unfs slower" `Quick unfs_case;
        tc "scaling sanity" `Quick scaling_sanity;
        tc "all techniques off" `Quick dist_off_still_correct;
        tc "golden simulated clocks" `Quick golden_determinism;
        tc "golden clock under null explorer" `Quick golden_with_null_explorer;
        tc "run and exec agree" `Quick run_and_exec_agree;
      ] );
  ]
