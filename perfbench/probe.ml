(* The benchmark's own world: Hare ([World.Hare_w]) behind a wrapped
   [Api.t]. Every system call a worker makes is timed on the simulated
   clock ([now_cycles], which charges nothing) before and after the
   call; the init process's first [bench-worker] spawn marks the end of
   set-up on the wall clock and snapshots every layer counter, so the
   per-layer numbers cover the timed region only. Nothing here charges
   simulated cycles, draws from an RNG or schedules events: a wrapped
   run is the plain run, observed. *)

module Api = Hare_api.Api
module Engine = Hare_sim.Engine
module Core_res = Hare_sim.Core_res
module M = Hare.Machine
module P = Hare_proc.Process
module Client = Hare_client.Client
module Dircache = Hare_client.Dircache
module Server = Hare_server.Server
module Pcache = Hare_mem.Pcache
module Config = Hare_config.Config
module Hw = Hare_experiments.World.Hare_w
module Ibuf = Measure.Ibuf

(* Layer counters at one instant; [diff] of two covers an interval. *)
type counters = {
  wall : float;  (** host seconds, [Unix.gettimeofday] *)
  clock : int;  (** simulated cycles *)
  events : int;
  minor : float;
  promoted : float;
  majors : int;
  app_busy : int;  (** busy cycles summed over application cores *)
  srv_busy : int;  (** busy cycles summed over file-server cores *)
  rpcs : int;
  dc_hits : int;
  dc_misses : int;
  dc_invals : int;
  srv_ops : int array;  (** requests served, per physical server *)
  srv_invals : int;
  pc_hits : int;
  pc_misses : int;
  pc_evictions : int;
  pc_writebacks : int;
  pc_invalidated : int;
  kind_n : int array;  (** events executed per tag kind *)
  kind_ns : int array;  (** host ns spent per tag kind *)
}

(* Host-time attribution per engine tag kind (opaque, resume, deliver),
   fed by an always-ordinal-0 explorer: the time between two
   consecutive [ex_step] stamps is charged to the earlier event's kind.
   Attached on traced runs only. Kinds: 0 opaque, 1 resume, 2 deliver. *)
let kind_index tag =
  match Engine.tag_kind tag with
  | Engine.Opaque -> 0
  | Engine.Resume _ -> 1
  | Engine.Deliver _ -> 2

type attribution = {
  n : int array;
  ns : int array;
  mutable last_kind : int;
  mutable last_t : int64;
}

let attribution () =
  { n = Array.make 3 0; ns = Array.make 3 0; last_kind = -1; last_t = 0L }

let stamp a kind =
  let t = Monotonic_clock.now () in
  if a.last_kind >= 0 then
    a.ns.(a.last_kind) <-
      a.ns.(a.last_kind) + Int64.to_int (Int64.sub t a.last_t);
  a.last_t <- t;
  a.last_kind <- kind;
  if kind >= 0 then a.n.(kind) <- a.n.(kind) + 1

let explorer a =
  {
    Engine.ex_choose = (fun ~time:_ _ -> 0);
    ex_step = (fun ~time:_ ~seq:_ ~tag -> stamp a (kind_index tag));
    ex_access = ignore;
  }

(* One open-loop request: issued when its worker returns from
   [sleep_until due]; it ends at the return of its last system call. *)
type request = { due : int; mutable last : int; mutable req_failed : bool }

type state = {
  mutable machine : M.t option;
  mutable init : P.t option;
  mutable attrib : attribution option;
  mutable open_loop : bool;
  mutable t_start : float;  (** wall clock when the run was started *)
  mutable at_spawn : counters option;
  lat : Ibuf.t;  (** closed: per syscall; open: per request, from due *)
  lag : Ibuf.t;  (** open loop: now - due at each [sleep_until] *)
  mutable attempted : int;
  mutable failed : int;
  reqs : (int, request) Hashtbl.t;  (** open request per worker pid *)
}

let st =
  {
    machine = None;
    init = None;
    attrib = None;
    open_loop = false;
    t_start = 0.;
    at_spawn = None;
    lat = Ibuf.create ();
    lag = Ibuf.create ();
    attempted = 0;
    failed = 0;
    reqs = Hashtbl.create 256;
  }

(* Arm the probe for the next [Driver.run]. *)
let reset ~open_loop ~attribute =
  st.machine <- None;
  st.init <- None;
  st.attrib <- (if attribute then Some (attribution ()) else None);
  st.open_loop <- open_loop;
  st.t_start <- Unix.gettimeofday ();
  st.at_spawn <- None;
  Ibuf.clear st.lat;
  Ibuf.clear st.lag;
  st.attempted <- 0;
  st.failed <- 0;
  Hashtbl.reset st.reqs

let machine () =
  match st.machine with Some m -> m | None -> failwith "probe: no machine"

let counters m =
  let cfg = M.config m in
  let k = M.kctx m in
  let busy cores =
    List.fold_left
      (fun acc c -> acc + Int64.to_int (Core_res.busy_cycles k.P.k_cores.(c)))
      0 cores
  in
  let clients = M.clients m and servers = M.servers m in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
  let dc f = sum (fun c -> f (Client.dircache c)) in
  let pc f = sum (fun c -> f (Pcache.stats (Client.pcache c))) in
  let gc = Gc.quick_stat () in
  let kind_n, kind_ns =
    match st.attrib with
    | Some a -> (Array.copy a.n, Array.copy a.ns)
    | None -> (Array.make 3 0, Array.make 3 0)
  in
  {
    wall = Unix.gettimeofday ();
    clock = Int64.to_int (M.now m);
    events = Engine.events_executed (M.engine m);
    minor = gc.Gc.minor_words;
    promoted = gc.Gc.promoted_words;
    majors = gc.Gc.major_collections;
    app_busy = busy (Config.app_cores cfg);
    srv_busy = busy (Config.server_cores cfg);
    rpcs = sum Client.rpc_count;
    dc_hits = dc Dircache.hits;
    dc_misses = dc Dircache.misses;
    dc_invals = dc Dircache.invalidations;
    srv_ops =
      Array.map (fun s -> Hare_stats.Opcount.total (Server.ops s)) servers;
    srv_invals = Array.fold_left (fun acc s -> acc + Server.invals_sent s) 0 servers;
    pc_hits = pc (fun s -> s.Pcache.hits);
    pc_misses = pc (fun s -> s.Pcache.misses);
    pc_evictions = pc (fun s -> s.Pcache.evictions);
    pc_writebacks = pc (fun s -> s.Pcache.writebacks);
    pc_invalidated = pc (fun s -> s.Pcache.invalidated);
    kind_n;
    kind_ns;
  }

(* Charge the event running when the run ended. *)
let close_attribution () = Option.iter (fun a -> stamp a (-1)) st.attrib

let diff a b =
  let sub x y = Array.mapi (fun i v -> v - y.(i)) x in
  {
    wall = b.wall -. a.wall;
    clock = b.clock - a.clock;
    events = b.events - a.events;
    minor = b.minor -. a.minor;
    promoted = b.promoted -. a.promoted;
    majors = b.majors - a.majors;
    app_busy = b.app_busy - a.app_busy;
    srv_busy = b.srv_busy - a.srv_busy;
    rpcs = b.rpcs - a.rpcs;
    dc_hits = b.dc_hits - a.dc_hits;
    dc_misses = b.dc_misses - a.dc_misses;
    dc_invals = b.dc_invals - a.dc_invals;
    srv_ops = sub b.srv_ops a.srv_ops;
    srv_invals = b.srv_invals - a.srv_invals;
    pc_hits = b.pc_hits - a.pc_hits;
    pc_misses = b.pc_misses - a.pc_misses;
    pc_evictions = b.pc_evictions - a.pc_evictions;
    pc_writebacks = b.pc_writebacks - a.pc_writebacks;
    pc_invalidated = b.pc_invalidated - a.pc_invalidated;
    kind_n = sub b.kind_n a.kind_n;
    kind_ns = sub b.kind_ns a.kind_ns;
  }

let close_request r =
  Ibuf.push st.lat (r.last - r.due);
  if r.req_failed then st.failed <- st.failed + 1

(* Close the last open-loop request of every worker, once the run has
   ended. Sorted by pid so sample order never depends on hashing. *)
let flush_requests () =
  Hashtbl.fold (fun pid r acc -> (pid, r) :: acc) st.reqs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, r) -> close_request r);
  Hashtbl.reset st.reqs

let now p = Int64.to_int (Hare.Posix.now_cycles p)

let is_worker p =
  st.at_spawn <> None
  && match st.init with Some i -> i != p | None -> false

(* Time one system call of a worker in the timed region. Errno errors
   are counted and re-raised unchanged; the call itself is untouched. *)
let timed p f =
  if not (is_worker p) then f ()
  else begin
    let t0 = now p in
    let finish ok =
      let t1 = now p in
      if st.open_loop then begin
        match Hashtbl.find_opt st.reqs p.P.pid with
        | Some r ->
            r.last <- t1;
            if not ok then r.req_failed <- true
        | None -> failwith "probe: open-loop system call before any sleep_until"
      end
      else begin
        Ibuf.push st.lat (t1 - t0);
        st.attempted <- st.attempted + 1;
        if not ok then st.failed <- st.failed + 1
      end
    in
    match f () with
    | v ->
        finish true;
        v
    | exception (Hare_proto.Errno.Error _ as e) ->
        finish false;
        raise e
  end

(* Open loop: [sleep_until due] ends the worker's previous request and
   opens the next one, due at [due]. *)
let paced (api : P.t Api.t) p due =
  if is_worker p then begin
    let t = now p and due_i = Int64.to_int due in
    Ibuf.push st.lag (max 0 (t - due_i));
    Option.iter close_request (Hashtbl.find_opt st.reqs p.P.pid);
    st.attempted <- st.attempted + 1;
    Hashtbl.replace st.reqs p.P.pid
      { due = due_i; last = due_i; req_failed = false }
  end;
  api.Api.sleep_until p due

let mark_spawn p prog =
  if st.at_spawn = None && prog = "bench-worker"
     && match st.init with Some i -> i == p | None -> false
  then st.at_spawn <- Some (counters (machine ()))

let wrap (api : P.t Api.t) : P.t Api.t =
  let t = timed in
  {
    api with
    Api.openf = (fun p path fl -> t p (fun () -> api.Api.openf p path fl));
    close = (fun p fd -> t p (fun () -> api.Api.close p fd));
    read = (fun p fd ~len -> t p (fun () -> api.Api.read p fd ~len));
    write = (fun p fd s -> t p (fun () -> api.Api.write p fd s));
    lseek = (fun p fd ~pos w -> t p (fun () -> api.Api.lseek p fd ~pos w));
    dup2 = (fun p ~src ~dst -> t p (fun () -> api.Api.dup2 p ~src ~dst));
    pipe = (fun p -> t p (fun () -> api.Api.pipe p));
    fsync = (fun p fd -> t p (fun () -> api.Api.fsync p fd));
    ftruncate = (fun p fd ~size -> t p (fun () -> api.Api.ftruncate p fd ~size));
    unlink = (fun p path -> t p (fun () -> api.Api.unlink p path));
    mkdir = (fun p ~dist path -> t p (fun () -> api.Api.mkdir p ~dist path));
    rmdir = (fun p path -> t p (fun () -> api.Api.rmdir p path));
    rename = (fun p a b -> t p (fun () -> api.Api.rename p a b));
    readdir = (fun p path -> t p (fun () -> api.Api.readdir p path));
    stat = (fun p path -> t p (fun () -> api.Api.stat p path));
    exists = (fun p path -> t p (fun () -> api.Api.exists p path));
    chdir = (fun p path -> t p (fun () -> api.Api.chdir p path));
    fork = (fun p body -> t p (fun () -> api.Api.fork p body));
    spawn =
      (fun p ~prog ~args ->
        mark_spawn p prog;
        t p (fun () -> api.Api.spawn p ~prog ~args));
    waitpid = (fun p pid -> t p (fun () -> api.Api.waitpid p pid));
    wait = (fun p -> t p (fun () -> api.Api.wait p));
    kill = (fun p pid s -> t p (fun () -> api.Api.kill p pid s));
    sleep_until = (fun p due -> paced api p due);
  }

(* [World.Hare_w] with the wrapped API. [boot] remembers the machine
   (and attaches the attribution explorer when armed); [spawn_init]
   remembers the init process, whose own calls are never timed. *)
module World : Hare_experiments.World.WORLD = struct
  include Hw

  let boot config =
    let m = Hw.boot config in
    st.machine <- Some m;
    Option.iter (fun a -> Engine.set_explorer (M.engine m) (explorer a)) st.attrib;
    m

  let api m = wrap (Hw.api m)

  let spawn_init m ~name body =
    let p = Hw.spawn_init m ~name body in
    st.init <- Some p;
    p
end
