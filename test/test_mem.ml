(* Tests for the non-coherent memory system: the crux is that staleness is
   real — data written by one core is invisible to another until written
   back, and a core can read a stale private copy after DRAM changed. *)

open Hare_sim
open Hare_mem

let costs = Hare_config.Costs.default

let with_engine f =
  let e = Engine.create () in
  let failure = ref None in
  ignore
    (Engine.spawn e ~name:"test" (fun () ->
         try f e with exn -> failure := Some exn));
  Engine.run e;
  match !failure with Some exn -> raise exn | None -> ()

let mk_core e id = Core_res.create e ~id ~socket:(id / 2) ~ctx_switch:0

let mk_pcache ?(capacity = 1024) e id dram =
  Pcache.create dram ~core:(mk_core e id) ~costs ~capacity_lines:capacity

let test_dram_roundtrip () =
  let d = Dram.create ~nblocks:4 in
  let src = Bytes.make Layout.line_size 'x' in
  Dram.write_line d ~block:2 ~line:3 ~src ~src_off:0;
  let dst = Bytes.make Layout.line_size ' ' in
  Dram.read_line d ~block:2 ~line:3 ~dst ~dst_off:0;
  Alcotest.(check string) "roundtrip" (Bytes.to_string src) (Bytes.to_string dst);
  Alcotest.(check string)
    "unsafe view" "xxxx"
    (Dram.unsafe_read d ~block:2 ~off:(3 * 64) ~len:4)

let test_dram_zero () =
  let d = Dram.create ~nblocks:2 in
  let src = Bytes.make Layout.line_size 'q' in
  Dram.write_line d ~block:1 ~line:0 ~src ~src_off:0;
  Dram.zero_block d ~block:1;
  Alcotest.(check string) "zeroed" (String.make 4 '\000')
    (Dram.unsafe_read d ~block:1 ~off:0 ~len:4)

let test_dram_bounds () =
  let d = Dram.create ~nblocks:2 in
  let b = Bytes.create Layout.line_size in
  Alcotest.check_raises "bad block" (Invalid_argument "Dram: block 5 out of range")
    (fun () -> Dram.read_line d ~block:5 ~line:0 ~dst:b ~dst_off:0)

let test_pcache_roundtrip () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:1 ~off:100 "hello world";
      let s = Pcache.read_string p ~block:1 ~off:100 ~len:11 in
      Alcotest.(check string) "read own write" "hello world" s)

let test_pcache_dirty_not_in_dram () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "secret";
      (* Non-coherence: DRAM still has zeroes until write-back. *)
      Alcotest.(check string) "dram stale" (String.make 6 '\000')
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:6);
      Pcache.writeback_block p 0;
      Alcotest.(check string) "dram fresh" "secret"
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:6))

let test_pcache_stale_read_other_core () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let writer = mk_pcache e 0 d in
      let reader = mk_pcache e 1 d in
      (* Reader caches the (zero) line first. *)
      let (_ : string) = Pcache.read_string reader ~block:0 ~off:0 ~len:4 in
      Pcache.write_string writer ~block:0 ~off:0 "new!";
      Pcache.writeback_block writer 0;
      (* Without invalidation the reader sees its stale copy... *)
      Alcotest.(check string) "stale" (String.make 4 '\000')
        (Pcache.read_string reader ~block:0 ~off:0 ~len:4);
      (* ...and with invalidation (Hare's open-time action) the fresh one. *)
      Pcache.invalidate_block reader 0;
      Alcotest.(check string) "fresh after invalidate" "new!"
        (Pcache.read_string reader ~block:0 ~off:0 ~len:4))

let test_pcache_invalidate_discards_dirty () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let p = mk_pcache e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "gone";
      Pcache.invalidate_block p 0;
      Alcotest.(check string) "dirty data lost" (String.make 4 '\000')
        (Pcache.read_string p ~block:0 ~off:0 ~len:4))

let test_pcache_eviction_writes_back () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:64 in
      (* Tiny cache: 4 lines. *)
      let p = mk_pcache ~capacity:4 e 0 d in
      Pcache.write_string p ~block:0 ~off:0 "evictme";
      (* Touch enough other lines to force the dirty line out. *)
      for b = 1 to 8 do
        ignore (Pcache.read_string p ~block:b ~off:0 ~len:1)
      done;
      Alcotest.(check string) "dirty eviction reached dram" "evictme"
        (Dram.unsafe_read d ~block:0 ~off:0 ~len:7);
      let st = Pcache.stats p in
      Alcotest.(check bool) "evictions happened" true (st.Pcache.evictions > 0);
      Alcotest.(check bool) "capacity respected" true
        (Pcache.resident_lines p <= 4))

let test_pcache_costs_hit_vs_miss () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let core = mk_core e 0 in
      let p = Pcache.create d ~core ~costs ~capacity_lines:64 in
      let t0 = Engine.now e in
      ignore (Pcache.read_string p ~block:0 ~off:0 ~len:64);
      let miss_cost = Int64.sub (Engine.now e) t0 in
      let t1 = Engine.now e in
      ignore (Pcache.read_string p ~block:0 ~off:0 ~len:64);
      let hit_cost = Int64.sub (Engine.now e) t1 in
      Alcotest.(check bool) "miss slower than hit" true (miss_cost > hit_cost);
      Alcotest.(check int64) "hit cost"
        (Int64.of_int costs.cache_hit_line)
        hit_cost)

let test_pcache_numa_cost () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:4 in
      let core = mk_core e 0 in
      (* core 0 is socket 0; blocks 0-1 local, 2-3 remote. *)
      let p =
        Pcache.create d ~core ~costs ~capacity_lines:64
          ~block_socket:(fun b -> if b < 2 then 0 else 1)
      in
      let t0 = Engine.now e in
      ignore (Pcache.read_string p ~block:0 ~off:0 ~len:1);
      let local = Int64.sub (Engine.now e) t0 in
      let t1 = Engine.now e in
      ignore (Pcache.read_string p ~block:2 ~off:0 ~len:1);
      let remote = Int64.sub (Engine.now e) t1 in
      Alcotest.(check int64) "remote penalty"
        (Int64.add local (Int64.of_int costs.dram_cross_socket_line))
        remote)

let test_pcache_coherent_sees_remote_writes () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let a = mk_pcache e 0 d in
      let b = mk_pcache e 1 d in
      (* Both cores cache the line; coherent ops stay consistent without
         explicit invalidation (the ramfs baseline's model). *)
      let buf = Bytes.create 4 in
      Pcache.read_coherent b ~block:0 ~off:0 ~len:4 ~dst:buf ~dst_off:0;
      Pcache.write_coherent a ~block:0 ~off:0 ~len:4
        ~src:(Bytes.of_string "ping") ~src_off:0;
      Pcache.read_coherent b ~block:0 ~off:0 ~len:4 ~dst:buf ~dst_off:0;
      Alcotest.(check string) "coherent read" "ping" (Bytes.to_string buf))

let test_pcache_cross_line_ranges () =
  with_engine (fun e ->
      let d = Dram.create ~nblocks:2 in
      let p = mk_pcache e 0 d in
      let data = String.init 300 (fun i -> Char.chr (i mod 256)) in
      Pcache.write_string p ~block:0 ~off:50 data;
      let back = Pcache.read_string p ~block:0 ~off:50 ~len:300 in
      Alcotest.(check string) "spans lines" data back)

let test_layout_lines_touched () =
  Alcotest.(check (pair int int)) "one line" (0, 0) (Layout.lines_touched ~off:0 ~len:64);
  Alcotest.(check (pair int int)) "straddle" (0, 1) (Layout.lines_touched ~off:63 ~len:2);
  Alcotest.(check (pair int int)) "last" (63, 63)
    (Layout.lines_touched ~off:(Layout.block_size - 1) ~len:1);
  Alcotest.check_raises "escape"
    (Invalid_argument "Layout.lines_touched: range escapes block") (fun () ->
      ignore (Layout.lines_touched ~off:(Layout.block_size - 1) ~len:2))

(* ---------- differential model ------------------------------------------ *)

(* A list-based reference for one private cache: the LRU order is a list,
   MRU first, of lines holding real bytes. DRAM is modelled as one byte
   array per block. Costs follow the documented model: a line costs
   [cache_hit_line], a fill adds the DRAM transfer of its block (NUMA-
   aware) plus the write-back of a dirty victim, a coherent hit adds
   [dram_line / 8]; invalidation costs [invalidate_line] per resident
   line, a block write-back one DRAM transfer per dirty line. *)
module Ref = struct
  type line = { key : int; data : Bytes.t; mutable dirty : bool }

  type stats = {
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable writebacks : int;
    mutable invalidated : int;
  }

  type t = {
    cap : int;
    socket : int;
    block_socket : int -> int;
    dram : Bytes.t array;
    mutable lru : line list;
    st : stats;
  }

  let create ~cap ~socket ~block_socket dram =
    {
      cap;
      socket;
      block_socket;
      dram;
      lru = [];
      st = { hits = 0; misses = 0; evictions = 0; writebacks = 0; invalidated = 0 };
    }

  let ls = Layout.line_size

  let block_of l = l.key / Layout.lines_per_block

  let line_of l = l.key mod Layout.lines_per_block

  let dram_cost t block =
    if t.block_socket block <> t.socket then
      costs.dram_line + costs.dram_cross_socket_line
    else costs.dram_line

  let flush t l =
    if l.dirty then begin
      Bytes.blit l.data 0 t.dram.(block_of l) (line_of l * ls) ls;
      l.dirty <- false;
      t.st.writebacks <- t.st.writebacks + 1;
      dram_cost t (block_of l)
    end
    else 0

  (* The line, made MRU, and the DRAM cycles of the access (0 on a hit). *)
  let ensure t ~block ~line =
    let key = (block * Layout.lines_per_block) + line in
    match List.find_opt (fun l -> l.key = key) t.lru with
    | Some l ->
        t.st.hits <- t.st.hits + 1;
        t.lru <- l :: List.filter (fun x -> x != l) t.lru;
        (l, 0)
    | None ->
        t.st.misses <- t.st.misses + 1;
        let evict =
          if List.length t.lru < t.cap then 0
          else begin
            let victim = List.nth t.lru (List.length t.lru - 1) in
            t.lru <- List.filter (fun x -> x != victim) t.lru;
            t.st.evictions <- t.st.evictions + 1;
            flush t victim
          end
        in
        let l = { key; data = Bytes.sub t.dram.(block) (line * ls) ls; dirty = false } in
        t.lru <- l :: t.lru;
        (l, evict + dram_cost t block)

  (* Run [f l ~from ~n ~in_line] on each line [l] of [off, off + len):
     its piece starts at block offset [from], [in_line] bytes into the
     line, and is [n] bytes long. Returns the cycles charged. *)
  let access t ~block ~off ~len ~coherent f =
    let cycles = ref 0 in
    for line = off / ls to (off + len - 1) / ls do
      let l, dc = ensure t ~block ~line in
      let from = max off (line * ls) and upto = min (off + len) ((line + 1) * ls) in
      f l ~from ~n:(upto - from) ~in_line:(from - (line * ls));
      let dc = if coherent && dc = 0 then costs.dram_line / 8 else dc in
      cycles := !cycles + costs.cache_hit_line + dc
    done;
    !cycles

  let read t ~block ~off ~len ~coherent =
    let out = Bytes.create len in
    let cycles =
      access t ~block ~off ~len ~coherent (fun l ~from ~n ~in_line ->
          if coherent then begin
            Bytes.blit t.dram.(block) (line_of l * ls) l.data 0 ls;
            l.dirty <- false
          end;
          Bytes.blit l.data in_line out (from - off) n)
    in
    (out, cycles)

  let write t ~block ~off ~src ~coherent =
    let len = Bytes.length src in
    access t ~block ~off ~len ~coherent (fun l ~from ~n ~in_line ->
        Bytes.blit src (from - off) l.data in_line n;
        if coherent then begin
          Bytes.blit l.data 0 t.dram.(block) (line_of l * ls) ls;
          l.dirty <- false
        end
        else l.dirty <- true)

  let invalidate t block =
    let mine, rest = List.partition (fun l -> block_of l = block) t.lru in
    t.lru <- rest;
    t.st.invalidated <- t.st.invalidated + List.length mine;
    List.length mine * costs.invalidate_line

  let writeback t block =
    List.fold_left
      (fun acc l -> if block_of l = block then acc + flush t l else acc)
      0 t.lru
end

type op =
  | Read of { core : int; block : int; off : int; len : int; coherent : bool }
  | Write of {
      core : int;
      block : int;
      off : int;
      data : string;
      coherent : bool;
    }
  | Invalidate of { core : int; block : int }
  | Writeback of { core : int; block : int }

let model_blocks = 3

let show_op = function
  | Read { core; block; off; len; coherent } ->
      Printf.sprintf "read%s c%d b%d [%d+%d]"
        (if coherent then "_coherent" else "")
        core block off len
  | Write { core; block; off; data; coherent } ->
      Printf.sprintf "write%s c%d b%d [%d+%d]"
        (if coherent then "_coherent" else "")
        core block off (String.length data)
  | Invalidate { core; block } -> Printf.sprintf "invalidate c%d b%d" core block
  | Writeback { core; block } -> Printf.sprintf "writeback c%d b%d" core block

(* Ranges of up to 12 lines keep 4-64-line caches evicting; three blocks
   of 64 lines outgrow every capacity. *)
let gen_op =
  let open QCheck.Gen in
  let range =
    int_bound (Layout.block_size - 1) >>= fun off ->
    int_range 1 (min 768 (Layout.block_size - off)) >|= fun len -> (off, len)
  in
  let core = int_bound 1 and block = int_bound (model_blocks - 1) in
  frequency
    [
      ( 4,
        map3
          (fun core block ((off, len), coherent) ->
            Read { core; block; off; len; coherent })
          core block
          (pair range (frequency [ (3, return false); (1, return true) ])) );
      ( 4,
        core >>= fun core ->
        block >>= fun block ->
        range >>= fun (off, len) ->
        frequency [ (3, return false); (1, return true) ] >>= fun coherent ->
        string_size ~gen:printable (return len) >|= fun data ->
        Write { core; block; off; data; coherent } );
      (1, map2 (fun core block -> Invalidate { core; block }) core block);
      (1, map2 (fun core block -> Writeback { core; block }) core block);
    ]

let arb_case =
  QCheck.make
    ~print:(fun (caps, ops) ->
      Printf.sprintf "capacities %d/%d:\n  %s" (fst caps) (snd caps)
        (String.concat "\n  " (List.map show_op ops)))
    QCheck.Gen.(
      pair (pair (int_range 4 64) (int_range 4 64)) (list_size (int_range 1 80) gen_op))

(* Blocks 0 and 2 are local to socket 0, block 1 is remote: both DRAM
   costs get exercised. *)
let model_block_socket b = b mod 2

let prop_pcache_matches_model =
  QCheck.Test.make ~name:"pcache matches the list-based LRU model" ~count:300
    arb_case (fun ((cap0, cap1), ops) ->
      with_engine (fun e ->
          let dram = Dram.create ~nblocks:model_blocks in
          let cores = [| mk_core e 0; mk_core e 1 |] in
          let caches =
            Array.mapi
              (fun i cap ->
                Pcache.create ~block_socket:model_block_socket dram
                  ~core:cores.(i) ~costs ~capacity_lines:cap)
              [| cap0; cap1 |]
          in
          let ref_dram =
            Array.init model_blocks (fun _ -> Bytes.make Layout.block_size '\000')
          in
          let refs =
            Array.mapi
              (fun i cap ->
                Ref.create ~cap ~socket:(Core_res.socket cores.(i))
                  ~block_socket:model_block_socket ref_dram)
              [| cap0; cap1 |]
          in
          let fail step op fmt =
            QCheck.Test.fail_reportf ("step %d (%s): " ^^ fmt) step (show_op op)
          in
          List.iteri
            (fun step op ->
              let core =
                match op with
                | Read { core; _ } | Write { core; _ } | Invalidate { core; _ }
                | Writeback { core; _ } ->
                    core
              in
              let p = caches.(core) and r = refs.(core) in
              let busy0 = Core_res.busy_cycles cores.(core) in
              let want_cycles =
                match op with
                | Read { block; off; len; coherent; _ } ->
                    (* Read at a non-zero [dst_off] to cover the offset. *)
                    let dst = Bytes.make (len + 3) '#' in
                    (if coherent then Pcache.read_coherent else Pcache.read)
                      p ~block ~off ~len ~dst ~dst_off:3;
                    let want, cycles = Ref.read r ~block ~off ~len ~coherent in
                    let got = Bytes.sub_string dst 3 len in
                    if got <> Bytes.to_string want then
                      fail step op "read %S, model %S" got (Bytes.to_string want);
                    cycles
                | Write { block; off; data; coherent; _ } ->
                    let src = Bytes.of_string ("~~" ^ data) in
                    (if coherent then Pcache.write_coherent else Pcache.write)
                      p ~block ~off ~len:(String.length data) ~src ~src_off:2;
                    Ref.write r ~block ~off ~src:(Bytes.of_string data) ~coherent
                | Invalidate { block; _ } ->
                    Pcache.invalidate_block p block;
                    Ref.invalidate r block
                | Writeback { block; _ } ->
                    Pcache.writeback_block p block;
                    Ref.writeback r block
              in
              let cycles =
                Int64.to_int (Int64.sub (Core_res.busy_cycles cores.(core)) busy0)
              in
              if cycles <> want_cycles then
                fail step op "charged %d cycles, model %d" cycles want_cycles;
              let st = Pcache.stats p and m = r.Ref.st in
              let got =
                [ st.hits; st.misses; st.evictions; st.writebacks; st.invalidated;
                  Pcache.resident_lines p ]
              and want =
                [ m.hits; m.misses; m.evictions; m.writebacks; m.invalidated;
                  List.length r.Ref.lru ]
              in
              if got <> want then
                fail step op
                  "hits/misses/evictions/writebacks/invalidated/resident %s, \
                   model %s"
                  (String.concat "/" (List.map string_of_int got))
                  (String.concat "/" (List.map string_of_int want));
              for b = 0 to model_blocks - 1 do
                let got = Dram.unsafe_read dram ~block:b ~off:0 ~len:Layout.block_size in
                if got <> Bytes.to_string ref_dram.(b) then
                  fail step op "DRAM block %d differs from the model" b
              done)
            ops);
      true)

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "mem.dram",
      [
        tc "roundtrip" `Quick test_dram_roundtrip;
        tc "zero block" `Quick test_dram_zero;
        tc "bounds" `Quick test_dram_bounds;
      ] );
    ( "mem.pcache",
      [
        tc "roundtrip" `Quick test_pcache_roundtrip;
        tc "dirty not in dram" `Quick test_pcache_dirty_not_in_dram;
        tc "stale read on other core" `Quick test_pcache_stale_read_other_core;
        tc "invalidate discards dirty" `Quick test_pcache_invalidate_discards_dirty;
        tc "eviction writes back" `Quick test_pcache_eviction_writes_back;
        tc "hit cheaper than miss" `Quick test_pcache_costs_hit_vs_miss;
        tc "numa penalty" `Quick test_pcache_numa_cost;
        tc "coherent mode" `Quick test_pcache_coherent_sees_remote_writes;
        tc "cross-line ranges" `Quick test_pcache_cross_line_ranges;
        QCheck_alcotest.to_alcotest prop_pcache_matches_model;
      ] );
    ("mem.layout", [ tc "lines touched" `Quick test_layout_lines_touched ]);
  ]
