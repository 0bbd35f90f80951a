(* Pure bookkeeping behind the benchmark's numbers: span self time,
   the percentile sample-count rule, bounded top-k selection of slow
   steps, and the JSON result line. Nothing here touches the simulator,
   so every rule is unit-tested on its own (test_ledger.ml). *)

(* --- Span self time ----------------------------------------------------

   A span's self time is its duration minus the part of it covered by
   its children. Children may overlap each other (a certifier service
   span runs inside the certify stage span) and may stick out of the
   parent; only the union of their intervals clipped to the parent
   counts. *)

let covered ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  match List.sort compare clipped with
  | [] -> 0.0
  | (a0, b0) :: rest ->
    let total, a, b =
      List.fold_left
        (fun (total, a, b) (a', b') ->
          if a' > b then (total +. (b -. a), a', b') else (total, a, Float.max b b'))
        (0.0, a0, b0) rest
    in
    total +. (b -. a)

let self_time ~start ~stop children =
  Float.max 0.0 (stop -. start -. covered ~start ~stop children)

(* --- Percentile honesty ------------------------------------------------

   Percentiles are nearest-rank over [n] samples ([Util.Stats]): the
   p-th percentile is the sample at rank [ceil (p/100 * n)]. A tail
   percentile is only worth printing when enough samples lie beyond
   that rank to pin it down. *)

let min_beyond = 10

let rank ~n ~p = max 1 (min n (int_of_float (ceil (p /. 100.0 *. float_of_int n))))

let beyond ~n ~p = if n <= 0 then 0 else n - rank ~n ~p

let percentile_reportable ~n ~p = beyond ~n ~p >= min_beyond

(* --- Bounded top-k -----------------------------------------------------

   Keeps the [k] largest integer keys offered, each with a payload that
   is built only when the key is admitted — the traced run offers every
   engine step, and almost none of them make the cut. A binary min-heap:
   the root is the smallest retained key, the admission threshold. *)

module Top_k = struct
  type 'a t = {
    cap : int;
    keys : int array;
    payloads : 'a option array;
    mutable size : int;
  }

  let create cap =
    let cap = max 1 cap in
    { cap; keys = Array.make cap 0; payloads = Array.make cap None; size = 0 }

  let length t = t.size

  let swap t i j =
    let k = t.keys.(i) and p = t.payloads.(i) in
    t.keys.(i) <- t.keys.(j);
    t.payloads.(i) <- t.payloads.(j);
    t.keys.(j) <- k;
    t.payloads.(j) <- p

  let rec sift_up t i =
    let parent = (i - 1) / 2 in
    if i > 0 && t.keys.(i) < t.keys.(parent) then begin
      swap t i parent;
      sift_up t parent
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < t.size && t.keys.(l) < t.keys.(i) then l else i in
    let smallest = if r < t.size && t.keys.(r) < t.keys.(smallest) then r else smallest in
    if smallest <> i then begin
      swap t i smallest;
      sift_down t smallest
    end

  (* Admit [key] when the heap has room or it beats the smallest
     retained key; ties keep the earlier offer. *)
  let offer t key payload =
    if t.size < t.cap then begin
      t.keys.(t.size) <- key;
      t.payloads.(t.size) <- Some (payload ());
      t.size <- t.size + 1;
      sift_up t (t.size - 1)
    end
    else if key > t.keys.(0) then begin
      t.keys.(0) <- key;
      t.payloads.(0) <- Some (payload ());
      sift_down t 0
    end

  (* Retained entries, largest key first. *)
  let to_list t =
    List.init t.size (fun i ->
        match t.payloads.(i) with Some p -> (t.keys.(i), p) | None -> assert false)
    |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
end

(* Share of the total in the slowest [fraction] of [n] items, given the
   top-k heap that retained (at least) that many of them. *)
let slow_share ~fraction ~n ~total top =
  if n = 0 || total <= 0 then 0.0
  else begin
    let want = max 1 (int_of_float (ceil (fraction *. float_of_int n))) in
    let kept = List.filteri (fun i _ -> i < want) (Top_k.to_list top) in
    float_of_int (List.fold_left (fun acc (k, _) -> acc + k) 0 kept) /. float_of_int total
  end

(* --- The result line ---------------------------------------------------

   The last line of standard output: one JSON object with [correct],
   [attempted], [failed] and [metrics]. Values keep every digit. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
}

let json_number x = Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed metrics =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

(* The inverse of [result_line], for lines it printed: [None] for
   anything else. *)
let parse_result_line line =
  let entry ib =
    Scanf.bscanf ib " %S: {\"value\": %f, \"unit\": %S}" (fun name value unit_ ->
        { name; unit_; value })
  in
  let rec entries ib acc =
    let acc = entry ib :: acc in
    match Scanf.bscanf ib " %c" Fun.id with
    | ',' -> entries ib acc
    | '}' -> List.rev acc
    | _ -> failwith "parse_result_line"
  in
  try
    Scanf.sscanf line "{\"correct\": %B, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s@\n"
      (fun correct attempted failed rest ->
        let ib = Scanf.Scanning.from_string rest in
        let metrics =
          if Scanf.bscanf ib " %0c" Fun.id = '}' then begin
            Scanf.bscanf ib "}" ();
            []
          end
          else entries ib []
        in
        Scanf.bscanf ib "}%!" ();
        Some (correct, attempted, failed, metrics))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
