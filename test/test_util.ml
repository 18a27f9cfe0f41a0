(* Helpers for end-to-end machine tests. *)

module Config = Hare_config.Config
module Machine = Hare.Machine
module Posix = Hare.Posix
module P = Hare_proc.Process

let small_config ?(ncores = 4) ?placement ?exec_policy () =
  let c = Config.v ~ncores ?placement ?exec_policy () in
  (* Keep boot cheap for unit tests: a few MB of buffer cache suffice. *)
  { c with Config.buffer_cache_blocks = 1024; cores_per_socket = 2 }

(* Run [body] as the init process on a fresh machine; propagate any
   in-fiber exception (e.g. an Alcotest failure) to the test runner and
   assert a zero exit status. Returns the machine for post-mortem
   inspection. *)
let run ?(config = small_config ()) ?(expect_status = 0) body =
  let m = Machine.boot config in
  let init, _console = Machine.spawn_init m ~name:"test-init" (fun p _ -> body m p) in
  (match Machine.run m with
  | () -> ()
  | exception Hare_sim.Engine.Fiber_failure (_, exn) -> raise exn);
  (match Machine.exit_status m init with
  | Some st -> Alcotest.(check int) "init exit status" expect_status st
  | None -> Alcotest.fail "init never exited");
  m

module HD = Hare_experiments.Driver.Make (Hare_experiments.World.Hare_w)

(* Run [spec] on the booted machine [m] through the driver's run loop
   ([nprocs] defaults to one worker per application core); propagate any
   in-fiber exception and assert, under the name [what], that every
   worker exited 0 (and then [after_workers], run in init). *)
let exec ?(what = "workers ok") ?nprocs ?after_workers m spec =
  let nprocs =
    match nprocs with
    | Some n -> n
    | None -> List.length (Config.app_cores (Machine.config m))
  in
  match HD.exec ~nprocs ?after_workers m spec with
  | status -> Alcotest.(check (option int)) what (Some 0) status
  | exception Hare_sim.Engine.Fiber_failure (_, e) -> raise e

(* Boot a machine from [config], run one paper workload to completion
   (setup + workers), and return the machine for inspection. *)
let run_workload ?(wname = "creates") config =
  let m = Machine.boot config in
  exec m (Hare_workloads.All.find wname);
  m

(* Everything externally observable about a run, for an observer-is-inert
   comparison (tracing, checking, telemetry on vs off). *)
let fingerprint m =
  ( Machine.now m,
    Hare_stats.Opcount.to_list (Machine.total_syscalls m),
    Hare_stats.Opcount.to_list (Machine.total_server_ops m),
    Machine.total_rpcs m,
    Machine.total_invals m )

let fp :
    (int64 * (string * int) list * (string * int) list * int * int)
    Alcotest.testable =
  Alcotest.testable
    (fun ppf (now, _, _, rpcs, invals) ->
      Format.fprintf ppf "now=%Ld rpcs=%d invals=%d" now rpcs invals)
    ( = )

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1))
  in
  scan 0

(* Run the built hare_cli with [args]; return its exit code, stdout and
   stderr. *)
let hare_cli args =
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/hare_cli.exe"
  in
  if not (Sys.file_exists exe) then Alcotest.failf "%s not built" exe;
  let out = Filename.temp_file "hare_cli" ".out"
  and err = Filename.temp_file "hare_cli" ".err" in
  let rc = Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args) in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let o = read out and e = read err in
  Sys.remove out;
  Sys.remove err;
  (rc, o, e)

let errno : Hare_proto.Errno.t Alcotest.testable =
  Alcotest.testable Hare_proto.Errno.pp ( = )

(* Check that [f ()] raises the given errno. *)
let expect_errno name e f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected " ^ Hare_proto.Errno.to_string e)
  | exception Hare_proto.Errno.Error (got, _) -> Alcotest.check errno name e got

let flags_r = Hare_proto.Types.flags_r

let flags_w = Hare_proto.Types.flags_w

let flags_rw = Hare_proto.Types.flags_rw
