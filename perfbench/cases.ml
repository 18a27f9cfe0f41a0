(* The benchmark's workloads; README.md says why each was chosen. Each
   runs [Driver.default_config] with one dedicated file-server core per
   8 cores ([Split (ncores / 8)]).

   Only overload64 draws from the simulation's RNG (its arrival gaps),
   so only its simulated metrics depend on the seed; the seed reaches
   [Config.seed] for all of them. *)

module Api = Hare_api.Api
module Config = Hare_config.Config
module Driver = Hare_experiments.Driver
module Spec = Hare_workloads.Spec
module Tree = Hare_workloads.Tree
open Hare_proto

type loop = Closed | Open

type t = {
  name : string;
  spec : Spec.t;
  nprocs : int option;  (** [None]: one worker per application core *)
  scale : int;
  loop : loop;
  config : Config.t;  (** before the seed is applied *)
  op_calls : string list;
      (** closed loop: the system calls that each count as one of
          [spec.ops] *)
  mix : (string * int) list;
      (** the timed region's system-call mix ([Opcount.to_list]); it
          depends on the workload's definition only, so any change is a
          wrong output *)
}

let mix_to_string l =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) l)

(* overload64: a paced open loop with the mail-style mix of
   [Hare_workloads.Overload]. It differs from [Overload] so that no
   operation fails: a worker's first request is a delivery (the stock
   loop first reads, stats and unlinks a message never delivered), and
   the mechanisms that answer with an error (load shedding, retry
   budgets, circuit breakers) stay off in its configuration.

   Mean inter-arrival gap per worker, in cycles. At 550,000 the hottest
   server runs near its knee: credits and deadline expiry engage but
   the backlog stays bounded, and p99.9 varies by a few percent between
   seeds. Much faster rates overload it and latency grows without
   bound. *)
let period = 550_000

let paced_iters ~scale = 120 * scale

let paced_setup (api : 'p Api.t) p ~nprocs ~scale:_ =
  api.Api.mkdir p ~dist:false "/paced";
  for idx = 0 to nprocs - 1 do
    api.Api.mkdir p ~dist:false (Printf.sprintf "/paced/w%d" idx)
  done

(* Request [i] is one of: deliver message [i] (create, write, close),
   read back message [i - 4], stat message [i - 6], unlink message
   [i - 7]; every target was delivered by an earlier request. *)
let paced_worker (api : 'p Api.t) p ~idx ~nprocs:_ ~scale =
  let dir = Printf.sprintf "/paced/w%d" idx in
  let body = Tree.file_data 512 idx in
  let path i = Printf.sprintf "%s/m%05d" dir i in
  let next = ref (api.Api.now_cycles p) in
  for i = 8 to paced_iters ~scale + 7 do
    next :=
      Int64.add !next (Int64.of_int ((period / 2) + 1 + api.Api.random p period));
    api.Api.sleep_until p !next;
    match i mod 8 with
    | 0 | 1 | 2 | 3 ->
        let fd = api.Api.openf p (path i) Types.flags_w in
        Api.write_all api p fd body;
        api.Api.close p fd
    | 4 | 5 ->
        let fd = api.Api.openf p (path (i - 4)) Types.flags_r in
        ignore (Api.read_to_eof api p fd);
        api.Api.close p fd
    | 6 -> ignore (api.Api.stat p (path (i - 6)))
    | _ -> api.Api.unlink p (path (i - 7))
  done

let paced : Spec.t =
  {
    name = "paced";
    mode = Spec.Workers;
    exec_policy = Config.Round_robin;
    uses_dist = false;
    setup = paced_setup;
    worker = paced_worker;
    programs = Spec.no_programs;
    ops = (fun ~nprocs ~scale -> nprocs * paced_iters ~scale);
  }

let base ncores =
  { (Driver.default_config ~ncores) with Config.placement = Config.Split (ncores / 8) }

let all =
  [
    {
      name = "create512";
      spec = Hare_workloads.Creates.spec;
      nprocs = None;
      scale = 1;
      loop = Closed;
      config = base 512;
      op_calls = [ "open" ];
      mix = [ ("close", 113347); ("open", 112000) ];
    };
    {
      name = "write64";
      spec = Hare_workloads.Writes.spec;
      nprocs = None;
      scale = 2;
      loop = Closed;
      config = base 64;
      op_calls = [ "write" ];
      mix = [ ("write", 134400); ("lseek", 2072); ("close", 227); ("open", 56) ];
    };
    {
      name = "pfind64";
      spec = Hare_workloads.Pfind.dense;
      nprocs = None;
      scale = 2;
      loop = Closed;
      config = base 64;
      op_calls = [ "stat" ];
      mix = [ ("stat", 142352); ("readdir", 3528); ("close", 171) ];
    };
    {
      name = "overload64";
      spec = paced;
      nprocs = Some 192;
      scale = 4;
      loop = Open;
      op_calls = [];
      config =
        {
          (base 64) with
          Config.rpc_deadline = 30_000;
          rpc_retries = 6;
          rpc_deadline_max = 240_000;
          deadline_propagation = true;
          mailbox_capacity = 8;
        };
      mix = [
          ("close", 69699);
          ("open", 69120);
          ("read", 46080);
          ("write", 46080);
          ("stat", 11520);
          ("unlink", 11520);
        ];
    };
  ]

let find name = List.find_opt (fun c -> c.name = name) all

let config c ~seed ~traced =
  {
    c.config with
    Config.seed;
    trace_enabled = traced;
    trace_ring = false;
  }
