(* Unit and property tests for the util library. *)

let drain q = List.init (Util.Pqueue.length q) (fun _ -> Util.Pqueue.pop_exn q)

let test_pqueue_ordering () =
  let q = Util.Pqueue.create () in
  List.iter (fun (p, v) -> Util.Pqueue.push q p v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  Alcotest.(check (list string)) "min-heap order" [ "a"; "b"; "c" ] (drain q);
  Alcotest.(check bool) "empty after drain" true (Util.Pqueue.is_empty q);
  Alcotest.check_raises "pop_exn on empty" (Invalid_argument "Pqueue.pop_exn: empty")
    (fun () -> ignore (Util.Pqueue.pop_exn q))

let test_pqueue_fifo_ties () =
  let q = Util.Pqueue.create () in
  Util.Pqueue.push q 1.0 "x";
  Util.Pqueue.push q 0.0 "first";
  Util.Pqueue.push q 1.0 "y";
  Util.Pqueue.push q 1.0 "z";
  Alcotest.(check (list string)) "FIFO among equal priorities" [ "first"; "x"; "y"; "z" ]
    (drain q)

let test_pqueue_peek () =
  let q = Util.Pqueue.create () in
  Util.Pqueue.push q 5.0 42;
  Util.Pqueue.push q 7.0 43;
  Alcotest.(check (float 0.)) "min_prio" 5.0 (Util.Pqueue.min_prio q);
  Alcotest.(check int) "min_prio leaves the queue alone" 2 (Util.Pqueue.length q);
  Alcotest.(check int) "pop_exn returns the minimum" 42 (Util.Pqueue.pop_exn q);
  Alcotest.(check (float 0.)) "next minimum" 7.0 (Util.Pqueue.min_prio q)

let prop_pqueue_sorted =
  QCheck.Test.make ~name:"pqueue pops in priority order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_int))
    (fun items ->
      let q = Util.Pqueue.create () in
      List.iter (fun (p, v) -> Util.Pqueue.push q p v) items;
      let prios =
        List.init (Util.Pqueue.length q) (fun _ ->
            let p = Util.Pqueue.min_prio q in
            ignore (Util.Pqueue.pop_exn q);
            p)
      in
      prios = List.sort Float.compare (List.map fst items))

(* Interleaved pushes and pops against a list kept sorted by (priority,
   push index). Priorities come from five values, so most pushes tie with
   a queued entry and the FIFO order among ties is checked on every pop.
   An op [p >= 0] pushes priority [p] (odd ones through [push_after]); a
   negative op pops. *)
let prop_pqueue_model =
  QCheck.Test.make ~name:"pqueue pops in (priority, insertion) order" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 300) (int_range (-3) 4))
    (fun ops ->
      let q = Util.Pqueue.create () in
      let model = ref [] and pushed = ref 0 in
      let pop_agrees () =
        match !model with
        | [] -> Util.Pqueue.is_empty q
        | (prio, index) :: rest ->
          model := rest;
          let seen_prio = Util.Pqueue.min_prio q in
          seen_prio = prio && Util.Pqueue.pop_exn q = index
      in
      let step op =
        if op >= 0 then begin
          let prio = float_of_int op in
          if op mod 2 = 0 then Util.Pqueue.push q prio !pushed
          else Util.Pqueue.push_after q (prio -. 0.5) 0.5 !pushed;
          (* A stable sort keeps earlier pushes first among equal priorities. *)
          model :=
            List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) (!model @ [ (prio, !pushed) ]);
          incr pushed;
          true
        end
        else pop_agrees ()
      in
      let rec drained () = pop_agrees () && (!model = [] || drained ()) in
      List.for_all (fun op -> step op && Util.Pqueue.length q = List.length !model) ops
      && drained ()
      && Util.Pqueue.is_empty q)

let test_rng_determinism () =
  let a = Util.Rng.create 123 and b = Util.Rng.create 123 in
  let seq r = List.init 50 (fun _ -> Util.Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (seq a) (seq b)

let test_rng_split_independent () =
  let a = Util.Rng.create 1 in
  let b = Util.Rng.split a in
  let sa = List.init 20 (fun _ -> Util.Rng.int a 1000) in
  let sb = List.init 20 (fun _ -> Util.Rng.int b 1000) in
  Alcotest.(check bool) "split streams differ" true (sa <> sb)

let prop_rng_int_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.int rng n in
      x >= 0 && x < n)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in range" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, hi) ->
      let rng = Util.Rng.create seed in
      let x = Util.Rng.float rng hi in
      x >= 0.0 && x < hi)

let test_rng_exponential_mean () =
  let rng = Util.Rng.create 7 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Util.Rng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "exponential mean ~5 (got %.3f)" mean)
    true
    (mean > 4.8 && mean < 5.2)

let test_rng_zipf_skew () =
  let rng = Util.Rng.create 11 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let x = Util.Rng.zipf rng ~n:100 ~theta:0.99 in
    counts.(x) <- counts.(x) + 1
  done;
  Alcotest.(check bool) "zipf favours low ranks" true (counts.(0) > counts.(50) * 5)

let test_rng_zipf_uniform_when_theta_zero () =
  let rng = Util.Rng.create 13 in
  let ok = ref true in
  for _ = 1 to 1000 do
    let x = Util.Rng.zipf rng ~n:10 ~theta:0.0 in
    if x < 0 || x >= 10 then ok := false
  done;
  Alcotest.(check bool) "zipf theta=0 in range" true !ok

let test_rng_shuffle_permutes () =
  let rng = Util.Rng.create 99 in
  let arr = Array.init 20 (fun i -> i) in
  Util.Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_stats_basic () =
  let s = Util.Stats.create () in
  List.iter (Util.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Util.Stats.mean s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Util.Stats.total s);
  Alcotest.(check int) "count" 4 (Util.Stats.count s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Util.Stats.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Util.Stats.max_value s);
  Alcotest.(check (float 0.01)) "stddev" 1.29 (Util.Stats.stddev s)

let test_stats_percentile () =
  let s = Util.Stats.create () in
  for i = 1 to 100 do
    Util.Stats.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Util.Stats.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Util.Stats.percentile s 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Util.Stats.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (Util.Stats.percentile s 0.0)

let test_stats_empty () =
  let s = Util.Stats.create () in
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Util.Stats.mean s);
  Alcotest.(check (float 0.0)) "percentile of empty" 0.0 (Util.Stats.percentile s 50.0)

let test_stats_single_sample () =
  let s = Util.Stats.create () in
  Util.Stats.add s 7.5;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%g of a single sample" p)
        7.5 (Util.Stats.percentile s p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  Alcotest.(check (float 0.0)) "stddev of one sample" 0.0 (Util.Stats.stddev s)

let test_stats_percentile_clamps () =
  let s = Util.Stats.create () in
  List.iter (Util.Stats.add s) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check (float 1e-9)) "p below 0 clamps to min" 1.0
    (Util.Stats.percentile s (-10.0));
  Alcotest.(check (float 1e-9)) "p above 100 clamps to max" 3.0
    (Util.Stats.percentile s 250.0)

let test_stats_merge () =
  let a = Util.Stats.create () and b = Util.Stats.create () in
  Util.Stats.add a 1.0;
  Util.Stats.add b 3.0;
  let m = Util.Stats.merge a b in
  Alcotest.(check (float 1e-9)) "merged mean" 2.0 (Util.Stats.mean m);
  Alcotest.(check int) "merged count" 2 (Util.Stats.count m)

let prop_stats_mean_welford_agree =
  QCheck.Test.make ~name:"stats and online accumulator agree on mean" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Util.Stats.create () and o = Util.Stats.Online.create () in
      List.iter
        (fun x ->
          Util.Stats.add s x;
          Util.Stats.Online.add o x)
        xs;
      Float.abs (Util.Stats.mean s -. Util.Stats.Online.mean o) < 1e-6)

(* --- Log histogram (mergeable, HDR-style; lib/util/histogram.ml) --- *)

let log_hist_of_list ?buckets_per_decade xs =
  let h = Util.Histogram.Log.create ?buckets_per_decade () in
  List.iter (Util.Histogram.Log.add h) xs;
  h

let test_log_hist_quantile_accuracy () =
  (* The documented bound: quantile answers carry a relative error of at
     most 10^(1/(2*sub)) - 1 (~2.9% at the default sub = 40). Checked
     against the exact percentile over the same stream, with a little
     slack for the nearest-rank tie at bucket edges. *)
  let h = Util.Histogram.Log.create () in
  let s = Util.Stats.create () in
  let rng = Util.Rng.create 17 in
  for _ = 1 to 10_000 do
    let x = Util.Rng.exponential rng ~mean:12.0 +. 0.01 in
    Util.Histogram.Log.add h x;
    Util.Stats.add s x
  done;
  let sub = float_of_int (Util.Histogram.Log.buckets_per_decade h) in
  let bound = Float.pow 10.0 (1.0 /. (2.0 *. sub)) -. 1.0 +. 0.01 in
  List.iter
    (fun p ->
      let exact = Util.Stats.percentile s p in
      let approx = Util.Histogram.Log.percentile h p in
      let rel = Float.abs (approx -. exact) /. exact in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within %.1f%% (exact %.4f, log %.4f, err %.2f%%)" p
           (100.0 *. bound) exact approx (100.0 *. rel))
        true (rel <= bound))
    [ 50.0; 90.0; 95.0; 99.0 ]

let test_log_hist_single_value_exact () =
  (* With one sample the [min, max] clamp pins every percentile to it. *)
  let h = log_hist_of_list [ 3.7 ] in
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%g of a single sample" p)
        3.7
        (Util.Histogram.Log.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ];
  Alcotest.(check (float 0.0)) "min" 3.7 (Util.Histogram.Log.min_value h);
  Alcotest.(check (float 0.0)) "max" 3.7 (Util.Histogram.Log.max_value h)

let test_log_hist_zeros_and_negatives () =
  let h = log_hist_of_list [ -1.0; 0.0; 5.0 ] in
  Alcotest.(check int) "count includes zero bucket" 3 (Util.Histogram.Log.count h);
  Alcotest.(check (float 0.0)) "negatives clamp min to 0" 0.0
    (Util.Histogram.Log.min_value h);
  Alcotest.(check (float 0.0)) "p50 lands in the zero bucket" 0.0
    (Util.Histogram.Log.percentile h 50.0);
  Alcotest.(check (float 0.0)) "p100 is the max" 5.0
    (Util.Histogram.Log.percentile h 100.0)

let test_log_hist_empty_and_clear () =
  let h = Util.Histogram.Log.create () in
  Alcotest.(check bool) "fresh is empty" true (Util.Histogram.Log.is_empty h);
  Alcotest.(check (float 0.0)) "percentile of empty" 0.0
    (Util.Histogram.Log.percentile h 50.0);
  Alcotest.(check (float 0.0)) "min of empty" 0.0 (Util.Histogram.Log.min_value h);
  Util.Histogram.Log.add h 2.0;
  Alcotest.(check bool) "non-empty after add" false (Util.Histogram.Log.is_empty h);
  Util.Histogram.Log.clear h;
  Alcotest.(check bool) "clear empties" true (Util.Histogram.Log.is_empty h);
  Alcotest.(check int) "clear zeroes the count" 0 (Util.Histogram.Log.count h)

let test_log_hist_create_and_merge_validation () =
  Alcotest.check_raises "non-positive resolution rejected"
    (Invalid_argument "Histogram.Log.create: buckets_per_decade must be positive")
    (fun () -> ignore (Util.Histogram.Log.create ~buckets_per_decade:0 ()));
  Alcotest.check_raises "bucketing mismatch rejected"
    (Invalid_argument "Histogram.Log.merge: buckets_per_decade mismatch") (fun () ->
      ignore
        (Util.Histogram.Log.merge
           (Util.Histogram.Log.create ~buckets_per_decade:10 ())
           (Util.Histogram.Log.create ())))

(* Two Log histograms with identical bucket counts are observationally
   equal: same count, same extremes, same answer at every percentile. *)
let log_hist_fingerprint h =
  ( Util.Histogram.Log.count h,
    Util.Histogram.Log.min_value h,
    Util.Histogram.Log.max_value h,
    List.map (Util.Histogram.Log.percentile h) [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ]
  )

let log_samples_gen = QCheck.(list_of_size (Gen.int_range 0 30) (float_bound_inclusive 1e4))

let prop_log_hist_merge_commutative =
  QCheck.Test.make ~name:"log histogram merge is commutative" ~count:100
    QCheck.(pair log_samples_gen log_samples_gen)
    (fun (xs, ys) ->
      let a = log_hist_of_list xs and b = log_hist_of_list ys in
      log_hist_fingerprint (Util.Histogram.Log.merge a b)
      = log_hist_fingerprint (Util.Histogram.Log.merge b a))

let prop_log_hist_merge_associative =
  QCheck.Test.make ~name:"log histogram merge is associative" ~count:100
    QCheck.(triple log_samples_gen log_samples_gen log_samples_gen)
    (fun (xs, ys, zs) ->
      let a = log_hist_of_list xs
      and b = log_hist_of_list ys
      and c = log_hist_of_list zs in
      let open Util.Histogram.Log in
      log_hist_fingerprint (merge (merge a b) c)
      = log_hist_fingerprint (merge a (merge b c)))

let prop_log_hist_merge_counts_add =
  QCheck.Test.make ~name:"log histogram merge sums counts" ~count:100
    QCheck.(pair log_samples_gen log_samples_gen)
    (fun (xs, ys) ->
      let m = Util.Histogram.Log.merge (log_hist_of_list xs) (log_hist_of_list ys) in
      Util.Histogram.Log.count m = List.length xs + List.length ys
      && log_hist_fingerprint m = log_hist_fingerprint (log_hist_of_list (xs @ ys)))

let test_metrics_percentile_edge_cases () =
  let engine = Sim.Engine.create () in
  let m = Core.Metrics.create engine in
  Alcotest.(check (float 0.0)) "empty window p50" 0.0
    (Core.Metrics.percentile_response_ms m 50.0);
  let stages = Array.make Core.Metrics.stage_count 0.0 in
  Core.Metrics.record_commit m ~read_only:true ~stages ~response_ms:12.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single commit p%g" p)
        12.0
        (Core.Metrics.percentile_response_ms m p))
    [ 0.0; 50.0; 100.0 ];
  Core.Metrics.record_commit m ~read_only:true ~stages ~response_ms:4.0;
  Alcotest.(check (float 1e-9)) "p0 is the min" 4.0
    (Core.Metrics.percentile_response_ms m 0.0);
  Alcotest.(check (float 1e-9)) "p100 is the max" 12.0
    (Core.Metrics.percentile_response_ms m 100.0)

let test_vec () =
  let v = Util.Vec.create () in
  for i = 0 to 99 do
    Util.Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Util.Vec.length v);
  Alcotest.(check int) "get" 42 (Util.Vec.get v 42);
  Util.Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Util.Vec.get v 42);
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Vec: index 100 out of bounds (size 100)") (fun () ->
      ignore (Util.Vec.get v 100));
  Alcotest.(check int) "to_list length" 100 (List.length (Util.Vec.to_list v))

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "util.pqueue",
      [
        Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
        Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
        Alcotest.test_case "peek" `Quick test_pqueue_peek;
      ]
      @ qsuite [ prop_pqueue_sorted; prop_pqueue_model ] );
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
        Alcotest.test_case "zipf uniform" `Quick test_rng_zipf_uniform_when_theta_zero;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
      ]
      @ qsuite [ prop_rng_int_range; prop_rng_float_range ] );
    ( "util.stats",
      [
        Alcotest.test_case "basic moments" `Quick test_stats_basic;
        Alcotest.test_case "percentiles" `Quick test_stats_percentile;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "single sample" `Quick test_stats_single_sample;
        Alcotest.test_case "percentile clamps" `Quick test_stats_percentile_clamps;
        Alcotest.test_case "merge" `Quick test_stats_merge;
      ]
      @ qsuite [ prop_stats_mean_welford_agree ] );
    ( "util.histogram.log",
      [
        Alcotest.test_case "quantile accuracy bound" `Quick test_log_hist_quantile_accuracy;
        Alcotest.test_case "single value exact" `Quick test_log_hist_single_value_exact;
        Alcotest.test_case "zeros and negatives" `Quick test_log_hist_zeros_and_negatives;
        Alcotest.test_case "empty and clear" `Quick test_log_hist_empty_and_clear;
        Alcotest.test_case "create/merge validation" `Quick
          test_log_hist_create_and_merge_validation;
      ]
      @ qsuite
          [
            prop_log_hist_merge_commutative;
            prop_log_hist_merge_associative;
            prop_log_hist_merge_counts_add;
          ] );
    ( "util.misc",
      [
        Alcotest.test_case "metrics percentile edges" `Quick
          test_metrics_percentile_edge_cases;
        Alcotest.test_case "vec" `Quick test_vec;
      ] );
  ]
