(* --- Mergeable log-bucketed (HDR-style) histogram ------------------

   Bucket [i] covers the value range [10^(i/sub), 10^((i+1)/sub)), where
   [sub] is buckets-per-decade; [i] may be negative (values below 1).
   Quantiles answer with the bucket's geometric midpoint, so the
   relative error is bounded by 10^(1/(2*sub)) - 1 (~2.9% at the default
   sub = 40). Counts live in a hash table keyed by bucket index, so the
   value range is unbounded and merging is pointwise addition —
   commutative and associative, which is what lets per-window histograms
   roll up into a whole-run distribution. *)
module Log = struct
  type t = {
    sub : int;  (* buckets per decade *)
    buckets : (int, int ref) Hashtbl.t;
    mutable zeros : int;  (* observations <= 0, ordered below every bucket *)
    mutable total : int;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create ?(buckets_per_decade = 40) () =
    if buckets_per_decade <= 0 then
      invalid_arg "Histogram.Log.create: buckets_per_decade must be positive";
    {
      sub = buckets_per_decade;
      buckets = Hashtbl.create 64;
      zeros = 0;
      total = 0;
      min_v = infinity;
      max_v = neg_infinity;
    }

  let buckets_per_decade t = t.sub

  let bucket_of t x =
    (* floor(log10 x * sub); Float.log10 is exact enough for bucketing —
       a value landing one bucket off its true one stays within the
       error bound anyway. *)
    int_of_float (Float.floor (Float.log10 x *. float_of_int t.sub))

  let add t x =
    t.total <- t.total + 1;
    let key = Float.max x 0.0 in
    if key < t.min_v then t.min_v <- key;
    if key > t.max_v then t.max_v <- key;
    if x <= 0.0 then t.zeros <- t.zeros + 1
    else begin
      let i = bucket_of t x in
      match Hashtbl.find_opt t.buckets i with
      | Some c -> incr c
      | None -> Hashtbl.add t.buckets i (ref 1)
    end

  let count t = t.total

  let is_empty t = t.total = 0

  let min_value t = if t.total = 0 then 0.0 else t.min_v

  let max_value t = if t.total = 0 then 0.0 else t.max_v

  let sorted_buckets t =
    Hashtbl.fold (fun i c acc -> (i, !c) :: acc) t.buckets []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

  let representative t i =
    (* Geometric midpoint of [10^(i/sub), 10^((i+1)/sub)). *)
    Float.pow 10.0 ((float_of_int i +. 0.5) /. float_of_int t.sub)

  let percentile t p =
    if t.total = 0 then 0.0
    else begin
      let p = Float.max 0.0 (Float.min 100.0 p) in
      (* Nearest-rank, matching Stats.percentile. *)
      let rank =
        Stdlib.max 1
          (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.total)))
      in
      if rank <= t.zeros then 0.0
      else if rank >= t.total then t.max_v
      else begin
        let rec walk seen = function
          | [] -> t.max_v
          | (i, c) :: rest ->
            if seen + c >= rank then
              Float.min t.max_v (Float.max t.min_v (representative t i))
            else walk (seen + c) rest
        in
        walk t.zeros (sorted_buckets t)
      end
    end

  let merge a b =
    if a.sub <> b.sub then
      invalid_arg "Histogram.Log.merge: buckets_per_decade mismatch";
    let m = create ~buckets_per_decade:a.sub () in
    let blend src =
      Hashtbl.iter
        (fun i c ->
          match Hashtbl.find_opt m.buckets i with
          | Some dst -> dst := !dst + !c
          | None -> Hashtbl.add m.buckets i (ref !c))
        src.buckets;
      m.zeros <- m.zeros + src.zeros;
      m.total <- m.total + src.total;
      if src.total > 0 then begin
        if src.min_v < m.min_v then m.min_v <- src.min_v;
        if src.max_v > m.max_v then m.max_v <- src.max_v
      end
    in
    blend a;
    blend b;
    m

  let clear t =
    Hashtbl.reset t.buckets;
    t.zeros <- 0;
    t.total <- 0;
    t.min_v <- infinity;
    t.max_v <- neg_infinity
end
