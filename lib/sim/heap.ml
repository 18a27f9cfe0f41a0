(* Event queue over (time, seq) int keys: a timing wheel for the near
   future in front of a binary min-heap for everything else. The engine
   pushes and pops one entry per simulated event, so at 512 cores this is
   the single hottest data structure in the process. A binary heap of
   ~80 entries spends most of that time on mispredicted compares down
   every level; almost every push is due within a few thousand cycles of
   the clock, where a wheel slot is found with a few bit operations. *)

(* --- overflow: binary min-heap ------------------------------------------
   Parallel flat arrays. Native-int keys keep every comparison and
   swap unboxed (no per-entry record, no Int64 boxes held live). Holds the
   entries outside the wheel's window. *)

module Bin = struct
  type 'a t = {
    mutable times : int array;
    mutable seqs : int array;
    mutable tags : int array;
        (* opaque per-entry label (the engine's action tag); rides along
           through swaps but never participates in ordering *)
    mutable values : 'a array;
    mutable size : int;
  }

  let create () =
    { times = [||]; seqs = [||]; tags = [||]; values = [||]; size = 0 }

  let length h = h.size

  let is_empty h = h.size = 0

  (* Vacated tail slots keep their stale value until overwritten by a later
     push. The retention is bounded by the heap's high-water mark, and the
     engine's values are small scheduled-callback closures, so no quadratic
     or unbounded growth can hide here. *)

  let grow h time seq value =
    let capacity = Array.length h.times in
    if h.size = capacity then begin
      let capacity' = if capacity = 0 then 64 else capacity * 2 in
      let times' = Array.make capacity' time in
      let seqs' = Array.make capacity' seq in
      let tags' = Array.make capacity' 0 in
      let values' = Array.make capacity' value in
      Array.blit h.times 0 times' 0 h.size;
      Array.blit h.seqs 0 seqs' 0 h.size;
      Array.blit h.tags 0 tags' 0 h.size;
      Array.blit h.values 0 values' 0 h.size;
      h.times <- times';
      h.seqs <- seqs';
      h.tags <- tags';
      h.values <- values'
    end

  let[@inline] lt h i j =
    let ti = Array.unsafe_get h.times i and tj = Array.unsafe_get h.times j in
    ti < tj || (ti = tj && Array.unsafe_get h.seqs i < Array.unsafe_get h.seqs j)

  let[@inline] swap h i j =
    let t = h.times.(i) in
    h.times.(i) <- h.times.(j);
    h.times.(j) <- t;
    let s = h.seqs.(i) in
    h.seqs.(i) <- h.seqs.(j);
    h.seqs.(j) <- s;
    let g = h.tags.(i) in
    h.tags.(i) <- h.tags.(j);
    h.tags.(j) <- g;
    let v = h.values.(i) in
    h.values.(i) <- h.values.(j);
    h.values.(j) <- v

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let left = (2 * i) + 1 and right = (2 * i) + 2 in
    let smallest = ref i in
    if left < h.size && lt h left !smallest then smallest := left;
    if right < h.size && lt h right !smallest then smallest := right;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h ~tag ~time ~seq value =
    grow h time seq value;
    let i = h.size in
    h.times.(i) <- time;
    h.seqs.(i) <- seq;
    h.tags.(i) <- tag;
    h.values.(i) <- value;
    h.size <- h.size + 1;
    sift_up h i

  let pop_min h =
    if h.size = 0 then raise Not_found;
    let time = h.times.(0) and seq = h.seqs.(0) and v = h.values.(0) in
    let last = h.size - 1 in
    h.size <- last;
    if last > 0 then begin
      h.times.(0) <- h.times.(last);
      h.seqs.(0) <- h.seqs.(last);
      h.tags.(0) <- h.tags.(last);
      h.values.(0) <- h.values.(last);
      sift_down h 0
    end;
    (time, seq, v)

  (* Every entry due at the minimum time, and removal of an arbitrary
     one: linear scans, for the schedule explorer only. *)

  let min_entries h =
    if h.size = 0 then [||]
    else begin
      let tmin = h.times.(0) in
      let n = ref 0 in
      for i = 0 to h.size - 1 do
        if Array.unsafe_get h.times i = tmin then incr n
      done;
      let out = Array.make !n (0, 0) in
      let j = ref 0 in
      for i = 0 to h.size - 1 do
        if Array.unsafe_get h.times i = tmin then begin
          out.(!j) <- (h.seqs.(i), h.tags.(i));
          incr j
        end
      done;
      Array.sort (fun (a, _) (b, _) -> compare (a : int) b) out;
      out
    end

  let remove_seq h seq =
    let idx = ref (-1) in
    for i = 0 to h.size - 1 do
      if Array.unsafe_get h.seqs i = seq then idx := i
    done;
    if !idx < 0 then raise Not_found;
    let i = !idx in
    let time = h.times.(i) and tag = h.tags.(i) and v = h.values.(i) in
    let last = h.size - 1 in
    h.size <- last;
    if i < last then begin
      h.times.(i) <- h.times.(last);
      h.seqs.(i) <- h.seqs.(last);
      h.tags.(i) <- h.tags.(last);
      h.values.(i) <- h.values.(last);
      (* The migrated tail entry may violate the heap property in either
         direction relative to its new neighbourhood. *)
      sift_down h i;
      sift_up h i
    end;
    (time, tag, v)
end

(* --- the wheel -----------------------------------------------------------
   One slot per cycle, [slots] of them. An entry goes into the wheel only
   when [base <= time < base + slots], where [base] is the largest time
   popped (or removed) so far, and into slot [time land mask]. Entries
   are popped in (time, seq) order, so [base] never passes a pending
   entry, and as it only grows every wheel entry stays inside the
   window. Two wheel entries that share a slot therefore have the same
   time: the one in the window that maps to the slot.
   Within a slot, entries are a circular list sorted by seq, reached
   through its last node: the engine's seqs only grow, so a push appends.
   Pushes outside the window (far timers, or a time before [base], which
   only tests make) go to the overflow heap, and each pop takes the
   smaller of the two minima. *)

let slots = 4096

let mask = slots - 1

(* Occupancy bitmap: 32 slots per [occ] word, and one [occ_sum] bit per
   non-zero [occ] word, so the next non-empty slot is at most a few word
   tests away. 32-bit words let [ctz] use a de Bruijn multiply in a
   native int. *)
let words = slots / 32

let debruijn =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

(* Index of the lowest set bit of a non-zero 32-bit [x]. *)
let[@inline] ctz x =
  Array.unsafe_get debruijn
    ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

type 'a t = {
  mutable base : int;
  tails : int array;
      (* per slot: the last node, whose [next] is the first; -1 when empty *)
  occ : int array;
  occ_sum : int array;
  mutable wsize : int; (* entries in the wheel *)
  (* Node pool, linked through [next]: a slot's list, or the free list. *)
  mutable seqs : int array;
  mutable tags : int array;
  mutable next : int array;
  mutable values : 'a array;
      (* a freed node keeps its stale value until reused; the retention is
         bounded by the wheel's high-water mark, as in [Bin] *)
  mutable free : int; (* free-list head, -1 when empty *)
  mutable used : int; (* nodes handed out at least once *)
  far : 'a Bin.t;
}

let create () =
  {
    base = 0;
    tails = Array.make slots (-1);
    occ = Array.make words 0;
    occ_sum = Array.make (words / 32) 0;
    wsize = 0;
    seqs = [||];
    tags = [||];
    next = [||];
    values = [||];
    free = -1;
    used = 0;
    far = Bin.create ();
  }

let length h = h.wsize + Bin.length h.far

let is_empty h = h.wsize = 0 && Bin.is_empty h.far

let set_occupied h s =
  let w = s lsr 5 in
  let o = h.occ.(w) in
  if o = 0 then
    h.occ_sum.(w lsr 5) <- h.occ_sum.(w lsr 5) lor (1 lsl (w land 31));
  h.occ.(w) <- o lor (1 lsl (s land 31))

let set_empty h s =
  let w = s lsr 5 in
  let o = h.occ.(w) land lnot (1 lsl (s land 31)) in
  h.occ.(w) <- o;
  if o = 0 then
    h.occ_sum.(w lsr 5) <- h.occ_sum.(w lsr 5) land lnot (1 lsl (w land 31))

(* The first non-zero [occ] word in summary word [g] or after it,
   cyclically; [g] itself is searched last in full. *)
let rec next_word h g k =
  let g' = (g + k) land ((words / 32) - 1) in
  let m = h.occ_sum.(g') in
  if m <> 0 then (g' lsl 5) lor ctz m else next_word h g (k + 1)

(* The first non-empty slot at or after [base]'s, cyclically: the wheel's
   minimum. Requires [wsize > 0]. *)
let first_slot h =
  let s = h.base land mask in
  let w = s lsr 5 in
  let m = h.occ.(w) land (-1 lsl (s land 31)) in
  if m <> 0 then (w lsl 5) lor ctz m
  else begin
    (* Next non-zero word after [w]; bits of [w] below [s] come last. *)
    let w0 = (w + 1) land (words - 1) in
    let g = w0 lsr 5 in
    let m = h.occ_sum.(g) land (-1 lsl (w0 land 31)) in
    let w' = if m <> 0 then (g lsl 5) lor ctz m else next_word h g 1 in
    (w' lsl 5) lor ctz h.occ.(w')
  end

let[@inline] slot_time h s = h.base + ((s - h.base) land mask)

let alloc h value =
  if h.free >= 0 then begin
    let n = h.free in
    h.free <- h.next.(n);
    n
  end
  else begin
    let capacity = Array.length h.seqs in
    if h.used = capacity then begin
      let capacity' = if capacity = 0 then 256 else capacity * 2 in
      let grow a fill =
        let a' = Array.make capacity' fill in
        Array.blit a 0 a' 0 capacity;
        a'
      in
      h.seqs <- grow h.seqs 0;
      h.tags <- grow h.tags 0;
      h.next <- grow h.next (-1);
      h.values <- grow h.values value
    end;
    let n = h.used in
    h.used <- n + 1;
    n
  end

(* The last node from [p] on whose seq is at most [seq]: [p]'s is, and a
   later node's must not be. *)
let rec last_below h p seq =
  let q = h.next.(p) in
  if h.seqs.(q) <= seq then last_below h q seq else p

let wheel_push h ~tag ~time ~seq value =
  let n = alloc h value in
  h.seqs.(n) <- seq;
  h.tags.(n) <- tag;
  h.values.(n) <- value;
  let s = time land mask in
  let tail = h.tails.(s) in
  if tail < 0 then begin
    h.next.(n) <- n;
    h.tails.(s) <- n;
    set_occupied h s
  end
  else begin
    (* Append after the tail, or, for an out-of-order seq, after the last
       node below it (the tail itself when the seq is below the head). *)
    let p =
      if h.seqs.(tail) <= seq || seq < h.seqs.(h.next.(tail)) then tail
      else last_below h h.next.(tail) seq
    in
    h.next.(n) <- h.next.(p);
    h.next.(p) <- n;
    if p = tail && h.seqs.(tail) <= seq then h.tails.(s) <- n
  end;
  h.wsize <- h.wsize + 1

let push h ?(tag = 0) ~time ~seq value =
  if time < 0 then invalid_arg "Heap.push: negative time";
  let d = time - h.base in
  if d >= 0 && d < slots then wheel_push h ~tag ~time ~seq value
  else Bin.push h.far ~tag ~time ~seq value

(* Unlinks node [n] from slot [s], given its predecessor [prev] (the tail
   for the first node), and frees it. *)
let unlink h s ~prev n =
  if prev = n then begin
    h.tails.(s) <- -1;
    set_empty h s
  end
  else begin
    h.next.(prev) <- h.next.(n);
    if h.tails.(s) = n then h.tails.(s) <- prev
  end;
  h.next.(n) <- h.free;
  h.free <- n;
  h.wsize <- h.wsize - 1

let[@inline] advance h time = if time > h.base then h.base <- time

(* Whether the overflow heap's minimum comes before [(time, seq)]. *)
let[@inline] far_first h time seq =
  let far = h.far in
  far.Bin.size > 0
  &&
  let ft = far.Bin.times.(0) in
  ft < time || (ft = time && far.Bin.seqs.(0) < seq)

let pop_far h =
  let ((time, _, _) as e) = Bin.pop_min h.far in
  advance h time;
  e

let pop_min h =
  if h.wsize = 0 then pop_far h
  else begin
    let s = first_slot h in
    let tail = h.tails.(s) in
    let n = h.next.(tail) in
    let time = slot_time h s and seq = h.seqs.(n) in
    if far_first h time seq then pop_far h
    else begin
      let v = h.values.(n) in
      unlink h s ~prev:tail n;
      h.base <- time;
      (time, seq, v)
    end
  end

let peek_min h =
  let far = h.far in
  if h.wsize = 0 then begin
    if far.Bin.size = 0 then raise Not_found;
    (far.Bin.times.(0), far.Bin.seqs.(0), far.Bin.values.(0))
  end
  else begin
    let s = first_slot h in
    let n = h.next.(h.tails.(s)) in
    let time = slot_time h s and seq = h.seqs.(n) in
    if far_first h time seq then
      (far.Bin.times.(0), far.Bin.seqs.(0), far.Bin.values.(0))
    else (time, seq, h.values.(n))
  end

let min_time h =
  let far = h.far in
  if h.wsize = 0 then begin
    if far.Bin.size = 0 then raise Not_found;
    far.Bin.times.(0)
  end
  else begin
    let time = slot_time h (first_slot h) in
    if far.Bin.size > 0 && far.Bin.times.(0) < time then far.Bin.times.(0)
    else time
  end

(* --- schedule-exploration support (cold paths) -------------------------
   The candidates are the minimum slot's list and the overflow heap's
   entries at the same time; nothing else can be due at the minimum. *)

(* The wheel's minimum slot, if its time is [tmin]; -1 otherwise. *)
let min_slot h tmin =
  if h.wsize = 0 then -1
  else
    let s = first_slot h in
    if slot_time h s = tmin then s else -1

(* The number of nodes from [n] to [tail], counting [n] as [k]. *)
let rec slot_length h tail n k =
  if n = tail then k else slot_length h tail h.next.(n) (k + 1)

let min_entries h =
  if is_empty h then [||]
  else begin
    let tmin = min_time h in
    let s = min_slot h tmin in
    let far =
      if h.far.Bin.size > 0 && h.far.Bin.times.(0) = tmin then
        Bin.min_entries h.far
      else [||]
    in
    if s < 0 then far
    else begin
      let tail = h.tails.(s) in
      let nw = slot_length h tail h.next.(tail) 1 in
      let out = Array.make (nw + Array.length far) (0, 0) in
      let n = ref tail in
      for i = 0 to nw - 1 do
        n := h.next.(!n);
        out.(i) <- (h.seqs.(!n), h.tags.(!n))
      done;
      if Array.length far > 0 then begin
        Array.blit far 0 out nw (Array.length far);
        Array.sort (fun (a, _) (b, _) -> compare (a : int) b) out
      end;
      out
    end
  end

(* The predecessor of the node after [prev] with seq [seq], up to [tail];
   -1 if there is none. *)
let rec pred_of h ~tail seq prev =
  let n = h.next.(prev) in
  if h.seqs.(n) = seq then prev
  else if n = tail then -1
  else pred_of h ~tail seq n

let remove_seq h seq =
  if is_empty h then raise Not_found;
  let tmin = min_time h in
  let s = min_slot h tmin in
  let prev =
    if s < 0 then -1 else pred_of h ~tail:h.tails.(s) seq h.tails.(s)
  in
  if prev >= 0 then begin
    let n = h.next.(prev) in
    let tag = h.tags.(n) and v = h.values.(n) in
    unlink h s ~prev n;
    advance h tmin;
    (tmin, tag, v)
  end
  else if
    h.far.Bin.size > 0
    && h.far.Bin.times.(0) = tmin
    && Array.exists (fun (sq, _) -> sq = seq) (Bin.min_entries h.far)
  then begin
    advance h tmin;
    Bin.remove_seq h.far seq
  end
  else raise Not_found
