(* Tests for the benchmark's own bookkeeping (ledger.ml). *)

open Ledger

let close = Alcotest.float 1e-9

(* --- span self time --- *)

let test_no_children () =
  Alcotest.check close "whole span" 10.0 (self_time ~start:0.0 ~stop:10.0 [])

let test_disjoint_children () =
  Alcotest.check close "two gaps" 4.0
    (self_time ~start:0.0 ~stop:10.0 [ (1.0, 3.0); (5.0, 9.0) ])

let test_overlapping_children () =
  (* A certifier span inside the certify stage span: the overlap counts
     once. *)
  Alcotest.check close "union, not sum" 5.0
    (self_time ~start:0.0 ~stop:10.0 [ (2.0, 6.0); (4.0, 7.0) ]);
  Alcotest.check close "order does not matter" 5.0
    (self_time ~start:0.0 ~stop:10.0 [ (4.0, 7.0); (2.0, 6.0) ])

let test_nested_children () =
  Alcotest.check close "inner child adds nothing" 6.0
    (self_time ~start:0.0 ~stop:10.0 [ (2.0, 6.0); (3.0, 4.0) ]);
  Alcotest.check close "touching intervals" 4.0
    (self_time ~start:0.0 ~stop:10.0 [ (2.0, 4.0); (4.0, 8.0) ])

let test_children_outside () =
  Alcotest.check close "clipped to the parent" 7.0
    (self_time ~start:0.0 ~stop:10.0 [ (-5.0, 1.0); (8.0, 20.0) ]);
  Alcotest.check close "fully covered" 0.0
    (self_time ~start:0.0 ~stop:10.0 [ (-1.0, 11.0) ]);
  Alcotest.check close "zero-length children" 10.0
    (self_time ~start:0.0 ~stop:10.0 [ (3.0, 3.0) ])

(* --- percentile sample counts --- *)

let test_beyond () =
  Alcotest.(check int) "1000 samples, p99" 10 (beyond ~n:1000 ~p:99.0);
  Alcotest.(check int) "999 samples, p99" 9 (beyond ~n:999 ~p:99.0);
  Alcotest.(check int) "100 samples, p50" 50 (beyond ~n:100 ~p:50.0);
  Alcotest.(check int) "one sample" 0 (beyond ~n:1 ~p:99.0);
  Alcotest.(check int) "no samples" 0 (beyond ~n:0 ~p:99.0)

let test_reportable () =
  Alcotest.(check bool) "10 beyond is enough" true (percentile_reportable ~n:1000 ~p:99.0);
  Alcotest.(check bool) "9 beyond is missing" false (percentile_reportable ~n:999 ~p:99.0);
  Alcotest.(check bool) "median of 20" true (percentile_reportable ~n:20 ~p:50.0);
  Alcotest.(check bool) "median of 19" false (percentile_reportable ~n:19 ~p:50.0)

(* --- slowest-step selection --- *)

let offer_all top keys = List.iteri (fun i k -> Top_k.offer top k (fun () -> i)) keys

let test_top_k () =
  let top = Top_k.create 3 in
  offer_all top [ 5; 1; 9; 3; 7; 2; 8 ];
  Alcotest.(check (list (pair int int)))
    "largest three, largest first, with their payloads" [ (9, 2); (8, 6); (7, 4) ]
    (Top_k.to_list top);
  Alcotest.(check int) "length" 3 (Top_k.length top)

let test_top_k_lazy_payload () =
  let top = Top_k.create 2 and built = ref 0 in
  List.iter
    (fun k -> Top_k.offer top k (fun () -> incr built))
    [ 10; 20; 1; 2; 3; 30 ];
  Alcotest.(check int) "payloads built only on admission" 3 !built;
  Top_k.offer top 20 (fun () -> incr built);
  Alcotest.(check int) "a tie with the threshold is not admitted" 3 !built

let test_top_k_ties () =
  let top = Top_k.create 2 in
  offer_all top [ 4; 4; 4 ];
  Alcotest.(check (list int)) "ties keep the earlier offers" [ 0; 1 ]
    (List.sort compare (List.map snd (Top_k.to_list top)))

let test_top_k_random () =
  let rng = Random.State.make [| 7 |] in
  let keys = List.init 2000 (fun _ -> Random.State.int rng 1_000_000) in
  let top = Top_k.create 25 in
  offer_all top keys;
  let expected = List.filteri (fun i _ -> i < 25) (List.sort (fun a b -> compare b a) keys) in
  Alcotest.(check (list int)) "matches a full sort" expected (List.map fst (Top_k.to_list top))

let test_slow_share () =
  let top = Top_k.create 2 in
  offer_all top [ 1; 1; 1; 1; 1; 1; 1; 1; 1; 91 ];
  (* 10 steps, slowest 10% = 1 step of 91 out of 100. *)
  Alcotest.check close "slowest tenth" 0.91 (slow_share ~fraction:0.1 ~n:10 ~total:100 top);
  Alcotest.check close "empty run" 0.0 (slow_share ~fraction:0.1 ~n:0 ~total:0 top)

(* --- the result line --- *)

let test_result_line () =
  Alcotest.(check string)
    "shape"
    ("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
    ^ "\"metrics\": {\"tps\": {\"value\": 0.5, \"unit\": \"txn/s\"}}}")
    (result_line ~correct:true ~attempted:3 ~failed:0
       [ { name = "tps"; unit_ = "txn/s"; value = 0.5 } ]);
  Alcotest.(check string) "all digits" "0.10000000000000001" (json_number 0.1)

let test_parse_result_line () =
  let metrics =
    [
      { name = "micro-session.tps"; unit_ = "txn/s"; value = 17771.123456789012 };
      { name = "setup_s"; unit_ = "s"; value = 1.5e-05 };
    ]
  in
  (* Printing what was parsed gives back the same line, every digit
     included. *)
  let round_trip line =
    Option.map
      (fun (correct, attempted, failed, ms) -> result_line ~correct ~attempted ~failed ms)
      (parse_result_line line)
  in
  let line = result_line ~correct:false ~attempted:12 ~failed:3 metrics in
  Alcotest.(check (option string)) "round trip" (Some line) (round_trip line);
  let empty = result_line ~correct:true ~attempted:1 ~failed:0 [] in
  Alcotest.(check (option string)) "no metrics" (Some empty) (round_trip empty);
  Alcotest.(check (option string)) "not a result line" None (round_trip "correct: true");
  Alcotest.(check (option string))
    "cut short" None
    (round_trip (String.sub line 0 (String.length line - 1)))

let () =
  Alcotest.run "perfbench"
    [
      ( "self_time",
        [
          Alcotest.test_case "no children" `Quick test_no_children;
          Alcotest.test_case "disjoint" `Quick test_disjoint_children;
          Alcotest.test_case "overlapping" `Quick test_overlapping_children;
          Alcotest.test_case "nested" `Quick test_nested_children;
          Alcotest.test_case "outside the parent" `Quick test_children_outside;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "samples beyond" `Quick test_beyond;
          Alcotest.test_case "reportable" `Quick test_reportable;
        ] );
      ( "slow_steps",
        [
          Alcotest.test_case "top k" `Quick test_top_k;
          Alcotest.test_case "lazy payload" `Quick test_top_k_lazy_payload;
          Alcotest.test_case "ties" `Quick test_top_k_ties;
          Alcotest.test_case "random" `Quick test_top_k_random;
          Alcotest.test_case "slow share" `Quick test_slow_share;
        ] );
      ( "result",
        [
          Alcotest.test_case "json line" `Quick test_result_line;
          Alcotest.test_case "parse" `Quick test_parse_result_line;
        ] );
    ]
