open Hare_sim
module Trace = Hare_trace.Trace
module Check = Hare_check.Check

(* Flat struct-of-arrays representation. A cached line is an int index
   [i]; nothing per line is a heap object.

   - Lines live in chunks of [chunk_lines] = 64, allocated on demand and
     never more than [capacity] lines' worth: chunk [i lsr 6] holds the
     line's 64 data bytes at offset [(i land 63) * 64] of a 4 KiB
     [Bytes.t], and its metadata — key, LRU prev/next, dirty — as four
     ints at [(i land 63) * 4] of a 256-int array. Growth never copies a
     chunk, so a growing cache leaves no garbage behind.
   - The LRU order is an intrusive doubly-linked list through the
     prev/next fields, [head] = MRU, [tail] = victim, -1 = none.
   - Lines dropped by [invalidate_block] go on a free list (linked
     through their next field) and are reused before a fresh index, so
     indices never leak and [nlines <= capacity] always holds.
   - The table maps line keys to line indices with ints only. A line's
     home slot is its block's hash plus its line number, so the lines of
     a block sit in adjacent slots. Collisions probe with stride 65: a
     displaced run of lines stays adjacent one stride on, and because 65
     is odd every slot is eventually visited. Deletion shifts entries
     back instead of leaving tombstones, so eviction churn never forces
     a rehash; the table only doubles, at 3/4 full.

   None of this is visible in simulated behaviour: victims, counters,
   charged cycles and the checker/explorer/trace hook calls are those of
   the record-per-line cache this replaced, in the same order. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  invalidated : int;
}

let chunk_lines = 64

let chunk_bits = 6

(* Metadata fields of a line, as offsets into its chunk's meta array. *)
let f_key = 0

let f_prev = 1

let f_next = 2

let f_dirty = 3

let meta_ints = 4

type t = {
  dram : Dram.t;
  core : Core_res.t;
  costs : Hare_config.Costs.t;
  block_socket : int -> int;
  capacity : int;
  mutable datas : Bytes.t array; (* per chunk: 64 lines of data *)
  mutable metas : int array array; (* per chunk: 64 x [key; prev; next; dirty] *)
  mutable nlines : int; (* line indices handed out so far *)
  mutable free : int; (* free-list head, -1 = empty *)
  mutable head : int; (* MRU line, -1 = empty *)
  mutable tail : int; (* LRU victim, -1 = empty *)
  mutable fill_cycles : int; (* DRAM cycles of the last [ensure_line] *)
  mutable tkeys : int array; (* line keys, -1 = empty *)
  mutable tvals : int array; (* line index of the key in [tkeys] *)
  mutable tmask : int; (* Array.length tkeys - 1 (power of two) *)
  mutable tshift : int; (* 63 - log2 (Array.length tkeys) *)
  mutable tcount : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable invalidated : int;
}

let empty_slot = -1

let initial_bits = 6 (* a 64-slot table *)

let create ?block_socket dram ~core ~costs ~capacity_lines =
  if capacity_lines <= 0 then invalid_arg "Pcache.create: empty capacity";
  let block_socket =
    match block_socket with
    | Some f -> f
    | None -> fun (_ : int) -> Core_res.socket core
  in
  {
    dram;
    core;
    costs;
    block_socket;
    capacity = capacity_lines;
    datas = [||];
    metas = [||];
    nlines = 0;
    free = -1;
    head = -1;
    tail = -1;
    fill_cycles = 0;
    tkeys = Array.make (1 lsl initial_bits) empty_slot;
    tvals = Array.make (1 lsl initial_bits) 0;
    tmask = (1 lsl initial_bits) - 1;
    tshift = 63 - initial_bits;
    tcount = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    invalidated = 0;
  }

let core t = t.core

let sink t = Engine.sink (Core_res.engine t.core)

let checker t = Engine.checker (Core_res.engine t.core)

let cid t = Core_res.id t.core

(* Footprint hook for the schedule explorer: the currently executing
   event touched DRAM line [key]. No-op unless an explorer is attached. *)
let note_line t key = Engine.note_line (Core_res.engine t.core) key

let key_of ~block ~line = (block * Layout.lines_per_block) + line

let block_of_key key = key / Layout.lines_per_block

let line_of_key key = key mod Layout.lines_per_block

(* --- line arena ------------------------------------------------------- *)

let[@inline] get t i f =
  Array.unsafe_get
    (Array.unsafe_get t.metas (i lsr chunk_bits))
    (((i land (chunk_lines - 1)) * meta_ints) + f)

let[@inline] set t i f v =
  Array.unsafe_set
    (Array.unsafe_get t.metas (i lsr chunk_bits))
    (((i land (chunk_lines - 1)) * meta_ints) + f)
    v

let[@inline] data t i = Array.unsafe_get t.datas (i lsr chunk_bits)

let[@inline] data_off i = (i land (chunk_lines - 1)) * Layout.line_size

(* A line index for a new resident line: a freed one if any, else the
   next fresh one, opening a chunk every 64 lines. Only called below
   capacity, so at most [capacity] indices are ever handed out. *)
let alloc_line t =
  if t.free >= 0 then begin
    let i = t.free in
    t.free <- get t i f_next;
    i
  end
  else begin
    let i = t.nlines in
    let c = i lsr chunk_bits in
    if c = Array.length t.metas then begin
      (* The chunk directory is one pointer per 64 lines; doubling it
         costs next to nothing, unlike doubling the chunks themselves. *)
      let max_chunks = ((t.capacity - 1) / chunk_lines) + 1 in
      let n = min max_chunks (max 1 (2 * c)) in
      t.metas <- Array.append t.metas (Array.make (n - c) [||]);
      t.datas <- Array.append t.datas (Array.make (n - c) Bytes.empty)
    end;
    if i land (chunk_lines - 1) = 0 then begin
      let lines = min chunk_lines (t.capacity - i) in
      t.metas.(c) <- Array.make (lines * meta_ints) 0;
      t.datas.(c) <- Bytes.create (lines * Layout.line_size)
    end;
    t.nlines <- i + 1;
    i
  end

(* --- intrusive LRU list (-1 = none) ----------------------------------- *)

let unlink t i =
  let p = get t i f_prev and n = get t i f_next in
  if p < 0 then t.head <- n else set t p f_next n;
  if n < 0 then t.tail <- p else set t n f_prev p

let push_front t i =
  let h = t.head in
  set t i f_prev (-1);
  set t i f_next h;
  if h < 0 then t.tail <- i else set t h f_prev i;
  t.head <- i

let[@inline] touch t i =
  if t.head <> i then begin
    unlink t i;
    push_front t i
  end

(* --- open-addressed table, line key -> line index --------------------- *)

let probe_stride = 65

(* Fibonacci hash of the block (top bits of the wrapped product) plus the
   line number: a block's lines get adjacent home slots. *)
let[@inline] home t key =
  ((((block_of_key key) * 0x4F1BBCDCBFA53E0B) lsr t.tshift) + line_of_key key)
  land t.tmask

(* Slot index of [key], or -1. The probe loops are top-level functions
   with the table passed in: a local recursive closure would allocate on
   every lookup. *)
let rec find_from keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = empty_slot then -1
  else find_from keys mask key ((i + probe_stride) land mask)

let tab_find t key = find_from t.tkeys t.tmask key (home t key)

(* The first empty slot on [key]'s probe path. *)
let rec free_from keys mask i =
  if Array.unsafe_get keys i = empty_slot then i
  else free_from keys mask ((i + probe_stride) land mask)

let tab_place t key v =
  let i = free_from t.tkeys t.tmask (home t key) in
  Array.unsafe_set t.tkeys i key;
  Array.unsafe_set t.tvals i v;
  t.tcount <- t.tcount + 1

(* Insert a key known to be absent, doubling the table first if that
   would fill it past 3/4. *)
let tab_insert t key v =
  if (t.tcount + 1) * 4 > Array.length t.tkeys * 3 then begin
    let old_keys = t.tkeys and old_vals = t.tvals in
    let size = 2 * Array.length old_keys in
    t.tkeys <- Array.make size empty_slot;
    t.tvals <- Array.make size 0;
    t.tmask <- size - 1;
    t.tshift <- t.tshift - 1;
    t.tcount <- 0;
    Array.iteri (fun i k -> if k >= 0 then tab_place t k old_vals.(i)) old_keys
  end;
  tab_place t key v

(* The inverse of [probe_stride] mod 2^63 (Newton's iteration), so that
   [steps t a b] counts the probe steps from slot [a] to slot [b]. *)
let stride_inv =
  let rec go x n = if n = 0 then x else go (x * (2 - (probe_stride * x))) (n - 1) in
  go probe_stride 6

let[@inline] steps t a b = ((b - a) * stride_inv) land t.tmask

(* Backward-shift deletion: walk the probe path after the hole and pull
   back every entry whose own path passes through the hole. The table
   never holds tombstones, so eviction churn needs no rehash. *)
let tab_delete t key =
  let keys = t.tkeys and vals = t.tvals and mask = t.tmask in
  let hole = ref (find_from keys mask key (home t key)) in
  if !hole >= 0 then begin
    t.tcount <- t.tcount - 1;
    let j = ref ((!hole + probe_stride) land mask) in
    while Array.unsafe_get keys !j <> empty_slot do
      let k = Array.unsafe_get keys !j in
      if steps t (home t k) !j >= steps t !hole !j then begin
        Array.unsafe_set keys !hole k;
        Array.unsafe_set vals !hole (Array.unsafe_get vals !j);
        hole := !j
      end;
      j := (!j + probe_stride) land mask
    done;
    Array.unsafe_set keys !hole empty_slot
  end

(* Decompose the upcoming compute charge into cache vs. DRAM cycles and
   publish cumulative miss/write-back counters when they moved. *)
let charge t ~cache ~dram ~miss0 ~wb0 =
  (match sink t with
  | None -> ()
  | Some tr ->
      let fid = Engine.current_fid (Core_res.engine t.core) in
      Trace.set_pending tr ~fid [ (Trace.Cache, cache); (Trace.Dram, dram) ];
      let now = Engine.now (Core_res.engine t.core) in
      let track = Core_res.id t.core in
      if t.misses <> miss0 then
        Trace.counter tr ~name:"pc-miss" ~track ~ts:now ~value:t.misses;
      if t.writebacks <> wb0 then
        Trace.counter tr ~name:"pc-writeback" ~track ~ts:now ~value:t.writebacks);
  Core_res.compute t.core (cache + dram)

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
    invalidated = t.invalidated;
  }

let resident_lines t = t.tcount

(* DRAM transfer cost for one line of [block], NUMA-aware. *)
let dram_cost t block =
  if t.block_socket block <> Core_res.socket t.core then
    t.costs.dram_line + t.costs.dram_cross_socket_line
  else t.costs.dram_line

let flush_line t i =
  if get t i f_dirty <> 0 then begin
    let key = get t i f_key in
    note_line t key;
    Dram.write_line t.dram ~block:(block_of_key key) ~line:(line_of_key key)
      ~src:(data t i) ~src_off:(data_off i);
    set t i f_dirty 0;
    t.writebacks <- t.writebacks + 1;
    (match checker t with
    | Some chk -> Check.cache_writeback chk ~core:(cid t) ~key
    | None -> ());
    true
  end
  else false

(* Fetch-or-miss one line; returns its index and leaves the DRAM cycles
   it cost (0 on a hit) in [t.fill_cycles]. Allocates only when a miss
   below capacity opens a new chunk. *)
let ensure_line t ~block ~line =
  let key = key_of ~block ~line in
  let s = tab_find t key in
  if s >= 0 then begin
    let i = Array.unsafe_get t.tvals s in
    touch t i;
    t.hits <- t.hits + 1;
    t.fill_cycles <- 0;
    i
  end
  else begin
    t.misses <- t.misses + 1;
    if t.tcount >= t.capacity then begin
      (* At capacity: evict the LRU victim and reuse its index for the
         incoming line. Hook order: write-back, drop, eviction count,
         evict hook, then the fill. *)
      let i = t.tail in
      let vkey = get t i f_key in
      let evict_cost =
        if flush_line t i then dram_cost t (block_of_key vkey) else 0
      in
      tab_delete t vkey;
      t.evictions <- t.evictions + 1;
      (match checker t with
      | Some chk -> Check.cache_evict chk ~core:(cid t) ~key:vkey
      | None -> ());
      set t i f_key key;
      set t i f_dirty 0;
      Dram.read_line t.dram ~block ~line ~dst:(data t i) ~dst_off:(data_off i);
      tab_insert t key i;
      touch t i;
      t.fill_cycles <- evict_cost + dram_cost t block;
      i
    end
    else begin
      let i = alloc_line t in
      Dram.read_line t.dram ~block ~line ~dst:(data t i) ~dst_off:(data_off i);
      set t i f_key key;
      set t i f_dirty 0;
      tab_insert t key i;
      push_front t i;
      t.fill_cycles <- dram_cost t block;
      i
    end
  end

let check_block block = if block < 0 then invalid_arg "Pcache: negative block"

let check_range ~block ~off ~len =
  check_block block;
  if len <= 0 then invalid_arg "Pcache: empty range";
  if off < 0 || off + len > Layout.block_size then
    invalid_arg "Pcache: range escapes block"

(* The part of byte range [off, off + len) of a block that falls in line
   [line]: its start within the line and its length. Int comparisons
   spelled out: [Stdlib.min]/[max] are polymorphic C calls. *)
let[@inline] line_from ~off line =
  let d = off - (line * Layout.line_size) in
  if d > 0 then d else 0

let[@inline] line_len ~off ~len line =
  let line_start = line * Layout.line_size in
  let line_end = line_start + Layout.line_size and upto = off + len in
  (if upto < line_end then upto else line_end)
  - if off > line_start then off else line_start

(* One loop serves all four accessors. It looks the explorer and checker
   up once per call: no hook can attach or detach one while a call runs,
   and the hook calls themselves keep their per-line order.

   The coherent accessors model an MESI machine by keeping DRAM
   authoritative: every write goes through to DRAM, every read refetches
   the line. A resident (hit) line moves at near-cache speed, a small
   write-through/snoop overhead of [dram_line / 8]; only misses pay the
   full DRAM transfer. *)
let access t ~block ~off ~len ~buf ~buf_off ~write ~coherent =
  check_range ~block ~off ~len;
  let miss0 = t.misses and wb0 = t.writebacks in
  let eng = Core_res.engine t.core in
  let exploring = Engine.exploring eng and chk = Engine.checker eng in
  let cache = ref 0 and dram = ref 0 in
  for line = off / Layout.line_size to (off + len - 1) / Layout.line_size do
    let m0 = t.misses in
    let i = ensure_line t ~block ~line in
    let key = key_of ~block ~line in
    if exploring then Engine.note_line eng key;
    (match chk with
    | Some chk ->
        let filled = t.misses > m0 in
        if coherent then
          Check.coherent_access chk ~core:(cid t) ~key ~write ~filled
        else Check.cache_access chk ~core:(cid t) ~key ~write ~filled
    | None -> ());
    let d = data t i and doff = data_off i in
    let from = line_from ~off line and n = line_len ~off ~len line in
    let pos = buf_off + (line * Layout.line_size) + from - off in
    if write then begin
      Bytes.blit buf pos d (doff + from) n;
      if coherent then begin
        (* Write-through: immediately visible to all cores. *)
        Dram.write_line t.dram ~block ~line ~src:d ~src_off:doff;
        set t i f_dirty 0
      end
      else set t i f_dirty 1
    end
    else begin
      if coherent then begin
        (* Refresh from DRAM: another (coherent) core may have written. *)
        Dram.read_line t.dram ~block ~line ~dst:d ~dst_off:doff;
        set t i f_dirty 0
      end;
      Bytes.blit d (doff + from) buf pos n
    end;
    cache := !cache + t.costs.cache_hit_line;
    dram :=
      !dram
      + if coherent && t.fill_cycles = 0 then t.costs.dram_line / 8
        else t.fill_cycles
  done;
  charge t ~cache:!cache ~dram:!dram ~miss0 ~wb0

let read t ~block ~off ~len ~dst ~dst_off =
  access t ~block ~off ~len ~buf:dst ~buf_off:dst_off ~write:false
    ~coherent:false

let write t ~block ~off ~len ~src ~src_off =
  access t ~block ~off ~len ~buf:src ~buf_off:src_off ~write:true
    ~coherent:false

let read_coherent t ~block ~off ~len ~dst ~dst_off =
  access t ~block ~off ~len ~buf:dst ~buf_off:dst_off ~write:false
    ~coherent:true

let write_coherent t ~block ~off ~len ~src ~src_off =
  access t ~block ~off ~len ~buf:src ~buf_off:src_off ~write:true
    ~coherent:true

let read_string t ~block ~off ~len =
  let dst = Bytes.create len in
  read t ~block ~off ~len ~dst ~dst_off:0;
  Bytes.unsafe_to_string dst

let write_string t ~block ~off s =
  write t ~block ~off ~len:(String.length s) ~src:(Bytes.unsafe_of_string s)
    ~src_off:0

(* [invalidate_block] and [writeback_block] visit a block's resident
   lines from the last line down, the order their hooks have always
   fired in. *)

let invalidate_block t block =
  check_block block;
  let miss0 = t.misses and wb0 = t.writebacks in
  let dropped = ref 0 in
  for line = Layout.lines_per_block - 1 downto 0 do
    let key = key_of ~block ~line in
    let s = tab_find t key in
    if s >= 0 then begin
      let i = t.tvals.(s) in
      note_line t key;
      (match checker t with
      | Some chk ->
          Check.cache_invalidate chk ~core:(cid t) ~key
            ~dirty:(get t i f_dirty <> 0)
      | None -> ());
      unlink t i;
      tab_delete t key;
      set t i f_next t.free;
      t.free <- i;
      t.invalidated <- t.invalidated + 1;
      incr dropped
    end
  done;
  charge t ~cache:(!dropped * t.costs.invalidate_line) ~dram:0 ~miss0 ~wb0

let writeback_block t block =
  check_block block;
  let miss0 = t.misses and wb0 = t.writebacks in
  let cost = ref 0 in
  for line = Layout.lines_per_block - 1 downto 0 do
    let s = tab_find t (key_of ~block ~line) in
    if s >= 0 && flush_line t t.tvals.(s) then
      cost := !cost + dram_cost t block
  done;
  charge t ~cache:0 ~dram:!cost ~miss0 ~wb0
