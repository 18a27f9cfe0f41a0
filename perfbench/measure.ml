(* Pure helpers of the benchmark: growable sample buffers, nearest-rank
   percentiles with their sample-count rule, medians, metric-name
   validation and the one-line JSON result. *)

(* Growable int buffer for latency samples (cycles fit a native int). *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let clear b = b.n <- 0

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n v;
    b.n <- b.n + 1

  let length b = b.n

  let sorted b =
    let a = Array.sub b.a 0 b.n in
    Array.sort compare a;
    a
end

(* Nearest rank of the q-th percentile among n samples, ceil(q/100 * n),
   in exact integer arithmetic (q is resolved to 1e-4 of a percent, so
   99.9% of 10000 is rank 9990, not 9991). *)
let rank q n =
  if q <= 0. || q >= 100. then invalid_arg "percentile: q outside (0, 100)";
  let ppm = int_of_float (Float.round (q *. 10_000.)) in
  ((ppm * n) + 999_999) / 1_000_000

(* Fewest samples for which the q-th percentile has at least ten
   samples strictly beyond its rank. *)
let min_samples q =
  let rec go n = if n - rank q n >= 10 then n else go (n + 1) in
  go 10

(* Nearest-rank percentile of a sorted array: the smallest sample such
   that at least q% of samples are <= it. Refuses (rather than
   extrapolates) when fewer than [min_samples q] samples exist, so a
   reported tail always has ten samples beyond it. *)
let percentile sorted q =
  let n = Array.length sorted in
  let need = min_samples q in
  if n < need then
    invalid_arg
      (Printf.sprintf "percentile: p%g needs %d samples, have %d" q need n);
  sorted.(rank q n - 1)

let median = function
  | [] -> invalid_arg "median: no values"
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A metric name starts with a letter or digit and is at most 64
   characters of [A-Za-z0-9_.-]. *)
let valid_name s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with '_' | '.' | '-' -> false | _ -> true)
  && String.for_all ok s

type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line: exactly the keys correct/attempted/failed/metrics. *)
let result_json ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (valid_name m.name) then invalid_arg ("metric name: " ^ m.name);
      if not (Float.is_finite m.value) then
        invalid_arg ("metric value not finite: " ^ m.name))
    metrics;
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)
