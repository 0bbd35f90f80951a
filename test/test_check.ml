(* Tests for the consistency checkers, including the paper's §II
   example histories H1, H2, H3. *)

open Check

(* H1 = {B1, W1(X=1), C1, B2, R2(X=0), C2}: serializable (as T2,T1) but
   NOT strongly consistent. *)
let h1 : History.t =
  [
    History.Begin 1;
    History.Write (1, "X", 1);
    History.Commit 1;
    History.Begin 2;
    History.Read (2, "X", 0);
    History.Commit 2;
  ]

(* H2 = same but T2 reads the new value: strongly consistent and
   serializable as T1,T2. *)
let h2 : History.t =
  [
    History.Begin 1;
    History.Write (1, "X", 1);
    History.Commit 1;
    History.Begin 2;
    History.Read (2, "X", 1);
    History.Commit 2;
  ]

(* H3 = write-skew-shaped: strongly consistent and snapshot-legal, but
   not serializable. *)
let h3 : History.t =
  [
    History.Begin 1;
    History.Read (1, "X", 0);
    History.Read (1, "Y", 0);
    History.Begin 2;
    History.Read (2, "X", 0);
    History.Read (2, "Y", 0);
    History.Write (1, "X", 1);
    History.Write (2, "Y", 1);
    History.Commit 1;
    History.Commit 2;
  ]

let test_h1 () =
  Alcotest.(check bool) "H1 serializable" true (Checker.serializable h1);
  Alcotest.(check bool) "H1 not strongly consistent" false (Checker.strongly_consistent h1);
  (* With T1 and T2 in different sessions, session consistency holds. *)
  Alcotest.(check bool) "H1 session consistent (separate sessions)" true
    (Checker.session_consistent ~session:(fun t -> t) h1);
  (* In the same session even session consistency is violated. *)
  Alcotest.(check bool) "H1 violates same-session consistency" false
    (Checker.session_consistent ~session:(fun _ -> 0) h1)

let test_h1_gsi_legal () =
  (* H1 is exactly the GSI-legal-but-not-strong case: T2 may read an
     older snapshot under `Any, but not under `Strong. *)
  Alcotest.(check bool) "H1 legal under GSI" true
    (Checker.snapshot_consistent ~mode:`Any h1);
  Alcotest.(check bool) "H1 passes first-committer-wins" true
    (Checker.first_committer_wins h1)

let test_h2 () =
  Alcotest.(check bool) "H2 serializable" true (Checker.serializable h2);
  Alcotest.(check bool) "H2 strongly consistent" true (Checker.strongly_consistent h2)

let test_h3 () =
  Alcotest.(check bool) "H3 not serializable" false (Checker.serializable h3);
  Alcotest.(check bool) "H3 strongly consistent" true (Checker.strongly_consistent h3);
  Alcotest.(check bool) "H3 snapshot-legal" true
    (Checker.snapshot_consistent ~mode:`Any h3);
  Alcotest.(check bool) "H3 passes first-committer-wins" true
    (Checker.first_committer_wins h3)

let test_first_committer_wins_violation () =
  (* Two concurrent transactions writing the same item both commit. *)
  let h : History.t =
    [
      History.Begin 1;
      History.Begin 2;
      History.Write (1, "X", 1);
      History.Write (2, "X", 2);
      History.Commit 1;
      History.Commit 2;
    ]
  in
  Alcotest.(check bool) "concurrent conflicting commits flagged" false
    (Checker.first_committer_wins h);
  (* Sequential versions of the same writes are fine. *)
  let h' : History.t =
    [
      History.Begin 1;
      History.Write (1, "X", 1);
      History.Commit 1;
      History.Begin 2;
      History.Write (2, "X", 2);
      History.Commit 2;
    ]
  in
  Alcotest.(check bool) "sequential writers ok" true (Checker.first_committer_wins h')

let test_well_formed () =
  Alcotest.(check bool) "h1 well-formed" true (History.well_formed h1 = Ok ());
  let bad = [ History.Read (1, "X", 0) ] in
  Alcotest.(check bool) "op before begin rejected" true
    (match History.well_formed bad with Error _ -> true | Ok () -> false);
  let double = [ History.Begin 1; History.Begin 1 ] in
  Alcotest.(check bool) "double begin rejected" true
    (match History.well_formed double with Error _ -> true | Ok () -> false)

let test_commits_before_begin () =
  Alcotest.(check (list (pair int int))) "H1 precedence" [ (1, 2) ]
    (History.commits_before_begin h1);
  Alcotest.(check (list (pair int int))) "H3 has no precedence pairs" []
    (History.commits_before_begin h3)

(* --- Runlog checkers --- *)

let record ?(session = 0) ?(table_set = [ "t" ]) ?(written = []) ?(keys = []) ?(epoch = 0)
    ?(lb_epoch = 0) ?(tier = Runlog.Strong) tid ~begin_ ~ack ~snapshot ~commit =
  {
    Runlog.tid;
    session;
    begin_time = begin_;
    ack_time = ack;
    snapshot_version = snapshot;
    commit_version = commit;
    epoch;
    lb_epoch;
    table_set;
    tier;
    tables_written = written;
    write_keys = keys;
    trace = None;
  }

let test_runlog_strong_ok () =
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "t" ];
      record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:1 ~commit:None;
    ]
  in
  Alcotest.(check int) "no violations" 0 (List.length (Runlog.strong_consistency log))

let test_runlog_strong_violation () =
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "t" ];
      record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:0 ~commit:None;
    ]
  in
  Alcotest.(check int) "stale snapshot detected" 1
    (List.length (Runlog.strong_consistency log));
  (* Overlapping transactions are unconstrained. *)
  let overlapping =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "t" ];
      record 2 ~begin_:5.0 ~ack:20.0 ~snapshot:0 ~commit:None;
    ]
  in
  Alcotest.(check int) "overlap not flagged" 0
    (List.length (Runlog.strong_consistency overlapping))

let test_runlog_fine_scoping () =
  (* T1 writes table "a"; T2's table-set is {"b"}: a stale snapshot is
     fine under the table-set-scoped property but not the full one. *)
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1) ~written:[ "a" ]
        ~table_set:[ "a" ];
      record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:0 ~commit:None ~table_set:[ "b" ];
    ]
  in
  Alcotest.(check int) "full strong consistency violated" 1
    (List.length (Runlog.strong_consistency log));
  Alcotest.(check int) "table-set-scoped consistency holds" 0
    (List.length (Runlog.fine_strong_consistency log))

let test_runlog_session_scoping () =
  let log =
    [
      record ~session:1 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1)
        ~written:[ "t" ];
      record ~session:2 2 ~begin_:11.0 ~ack:20.0 ~snapshot:0 ~commit:None;
      record ~session:1 3 ~begin_:12.0 ~ack:21.0 ~snapshot:0 ~commit:None;
    ]
  in
  (* T2 is in another session: not a session violation. T3 is in T1's
     session and must see v1. *)
  let violations = Runlog.session_consistency log in
  Alcotest.(check int) "one session violation" 1 (List.length violations);
  match violations with
  | [ v ] -> Alcotest.(check int) "the same-session pair" 3 v.Runlog.second.Runlog.tid
  | _ -> Alcotest.fail "expected exactly one violation"

let test_runlog_fcw () =
  let log =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
      record 2 ~begin_:1.0 ~ack:11.0 ~snapshot:0 ~commit:(Some 2)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
    ]
  in
  Alcotest.(check int) "concurrent same-key commits flagged" 1
    (List.length (Runlog.first_committer_wins log));
  let ok =
    [
      record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 1)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
      record 2 ~begin_:1.0 ~ack:11.0 ~snapshot:1 ~commit:(Some 2)
        ~keys:[ ("t", "k1") ] ~written:[ "t" ];
    ]
  in
  Alcotest.(check int) "serialized same-key commits ok" 0
    (List.length (Runlog.first_committer_wins ok))

let test_runlog_monotone_session () =
  let log =
    [
      record ~session:5 1 ~begin_:0.0 ~ack:10.0 ~snapshot:9 ~commit:None;
      record ~session:5 2 ~begin_:11.0 ~ack:20.0 ~snapshot:3 ~commit:None;
    ]
  in
  Alcotest.(check int) "snapshot regression flagged" 1
    (List.length (Runlog.monotone_session_snapshots log))

(* A regressing pair need not be neighbours in begin order: an
   overlapping record or a weaker-tier read can sit between them. *)
let expect_one_regression log =
  match Runlog.monotone_session_snapshots log with
  | [ v ] ->
    Alcotest.(check (pair int int)) "T1 -> T3" (1, 3) (v.Runlog.first.tid, v.Runlog.second.tid)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

let test_runlog_monotone_across_overlap () =
  expect_one_regression
    [
      record ~session:5 1 ~begin_:0.0 ~ack:10.0 ~snapshot:9 ~commit:None;
      record ~session:5 2 ~begin_:5.0 ~ack:20.0 ~snapshot:9 ~commit:None;
      record ~session:5 3 ~begin_:15.0 ~ack:30.0 ~snapshot:3 ~commit:None;
    ]

let test_runlog_monotone_across_weaker_tier () =
  expect_one_regression
    [
      record ~session:5 1 ~begin_:0.0 ~ack:1.0 ~snapshot:9 ~commit:None;
      record ~session:5 ~tier:Runlog.Eventual 2 ~begin_:2.0 ~ack:3.0 ~snapshot:2
        ~commit:None;
      record ~session:5 3 ~begin_:4.0 ~ack:5.0 ~snapshot:5 ~commit:None;
    ]

(* --- Sweeps vs the all-pairs oracle --- *)

let tables = [ "a"; "b"; "c" ]

(* Small value ranges on purpose: equal and coinciding begin/ack times,
   duplicate tids, snapshots at or past the commit, repeated tables and
   keys, shared sessions and rising LB epochs, so that violations of
   every checker are common. *)
let gen_record =
  let open QCheck.Gen in
  let tier =
    frequency
      [
        (4, return Runlog.Strong);
        ( 2,
          let+ versions = opt (int_range (-2) 5)
          and+ ms = opt (map float_of_int (int_range 0 5)) in
          Runlog.Bounded { versions; ms } );
        (2, return Runlog.Causal);
        (1, return Runlog.Eventual);
      ]
  in
  let+ tid = int_range 0 30
  and+ session = int_range 0 3
  and+ begin_ = int_range 0 20
  and+ span = int_range 0 6
  and+ snapshot = int_range 0 10
  and+ commit = opt (int_range 0 12)
  and+ lb_epoch = int_range 0 2
  and+ tier = tier
  and+ table_set = list_size (int_range 0 3) (oneofl tables)
  and+ written = list_size (int_range 0 3) (oneofl tables)
  and+ keys = list_size (int_range 0 3) (pair (oneofl tables) (oneofl [ "1"; "2"; "3" ])) in
  record ~session ~table_set ~written ~keys ~lb_epoch ~tier tid
    ~begin_:(float_of_int begin_)
    ~ack:(float_of_int (begin_ + span))
    ~snapshot ~commit

let pp_log log =
  String.concat "\n"
    (List.map
       (fun (r : Runlog.record) ->
         Printf.sprintf "T%d s%d [%g,%g] snap %d commit %s L%d %s ts=%s tw=%s keys=%s"
           r.tid r.session r.begin_time r.ack_time r.snapshot_version
           (match r.commit_version with Some v -> string_of_int v | None -> "-")
           r.lb_epoch (Runlog.tier_string r.tier)
           (String.concat "," r.table_set)
           (String.concat "," r.tables_written)
           (String.concat "," (List.map (fun (t, k) -> t ^ ":" ^ k) r.write_keys)))
       log)

let log_arb =
  QCheck.make ~print:pp_log QCheck.Gen.(list_size (int_range 0 40) gen_record)

let oracle_pairs =
  [
    ("strong_consistency", Runlog.strong_consistency, Runlog_oracle.strong_consistency);
    ( "fine_strong_consistency",
      Runlog.fine_strong_consistency,
      Runlog_oracle.fine_strong_consistency );
    ("session_consistency", Runlog.session_consistency, Runlog_oracle.session_consistency);
    ("first_committer_wins", Runlog.first_committer_wins, Runlog_oracle.first_committer_wins);
    ( "monotone_session_snapshots",
      Runlog.monotone_session_snapshots,
      Runlog_oracle.monotone_session_snapshots );
    ( "lb_floor_preservation",
      Runlog.lb_floor_preservation,
      Runlog_oracle.lb_floor_preservation );
    ( "tier_bounded_staleness",
      Runlog.tier_bounded_staleness,
      Runlog_oracle.tier_bounded_staleness );
    ("tier_causal_ryw", Runlog.tier_causal_ryw, Runlog_oracle.tier_causal_ryw);
    ("tier_monotone_reads", Runlog.tier_monotone_reads, Runlog_oracle.tier_monotone_reads);
  ]
  @ List.init 8 (fun i ->
        let k = i - 2 in
        ( Printf.sprintf "bounded_staleness ~k:%d" k,
          Runlog.bounded_staleness ~k,
          Runlog_oracle.bounded_staleness ~k ))

let prop_sweeps_match_oracle =
  QCheck.Test.make ~name:"every checker equals its all-pairs oracle" ~count:500 log_arb
    (fun log ->
      List.for_all
        (fun (name, fast, oracle) ->
          let got = fast log and want = oracle log in
          got = want
          || QCheck.Test.fail_reportf "%s: %d violations, oracle %d" name
               (List.length got) (List.length want))
        oracle_pairs)

(* A clean 20k-record log with one stale snapshot, one same-key overlap
   and one session regression planted: each checker reports exactly its
   own pair, so a filter that drops everything cannot pass. Record i
   begins at i, is acked at i + 0.5, reads snapshot i, commits v(i+1),
   writes its own table and a key shared with every 997th record. *)
let test_planted_at_scale () =
  let n = 20_000 in
  let all_tables = List.init 4 (Printf.sprintf "t%d") in
  let table i = Printf.sprintf "t%d" (i mod 4) in
  let base i =
    record ~session:(i mod 50) ~table_set:all_tables ~written:[ table i ]
      ~keys:[ (table i, string_of_int (i mod 997)) ]
      i ~begin_:(float_of_int i)
      ~ack:(float_of_int i +. 0.5)
      ~snapshot:i ~commit:(Some (i + 1))
  in
  let stale = 10_000 and fcw_a = 5_000 and fcw_b = 5_001 in
  let log =
    List.init n (fun i ->
        let r = base i in
        if i = stale then { r with Runlog.snapshot_version = i - 1 }
        else if i = fcw_b then
          (* Begins before T5000 is acked, from the same snapshot, and
             writes its key. *)
          {
            r with
            Runlog.begin_time = float_of_int fcw_a +. 0.25;
            snapshot_version = fcw_a;
            write_keys = (base fcw_a).write_keys;
          }
        else r)
    @ [
        (* T20000 saw T15000's commit before it was acked; T20001, in
           the same session and after T20000's ack, reads an older one
           that still covers every commit acked before it began. *)
        record ~session:999 ~table_set:all_tables n ~begin_:15_000.1 ~ack:15_000.2
          ~snapshot:15_001 ~commit:None;
        record ~session:999 ~table_set:all_tables (n + 1) ~begin_:15_000.3 ~ack:15_000.4
          ~snapshot:15_000 ~commit:None;
      ]
  in
  let pairs vs = List.map (fun v -> (v.Runlog.first.tid, v.Runlog.second.tid)) vs in
  let check name want got = Alcotest.(check (list (pair int int))) name want (pairs got) in
  check "strong" [ (stale - 1, stale) ] (Runlog.strong_consistency log);
  check "fine" [ (stale - 1, stale) ] (Runlog.fine_strong_consistency log);
  check "bounded k=0" [ (stale - 1, stale) ] (Runlog.bounded_staleness ~k:0 log);
  check "bounded k=1" [] (Runlog.bounded_staleness ~k:1 log);
  check "first-committer-wins" [ (fcw_a, fcw_b) ] (Runlog.first_committer_wins log);
  check "monotone session" [ (n, n + 1) ] (Runlog.monotone_session_snapshots log);
  check "session" [] (Runlog.session_consistency log);
  check "lb floor" [] (Runlog.lb_floor_preservation log);
  check "tier bounded" [] (Runlog.tier_bounded_staleness log);
  check "tier causal ryw" [] (Runlog.tier_causal_ryw log);
  check "tier monotone" [] (Runlog.tier_monotone_reads log)

(* Property: the strong-consistency checker is monotone — raising a later
   transaction's snapshot version never introduces a violation. *)
let prop_strong_monotone_in_snapshot =
  QCheck.Test.make ~name:"runlog strong checker monotone in snapshot" ~count:100
    QCheck.(pair (int_range 0 5) (int_range 0 5))
    (fun (snap_lo, extra) ->
      let log snap =
        [
          record 1 ~begin_:0.0 ~ack:10.0 ~snapshot:0 ~commit:(Some 3) ~written:[ "t" ];
          record 2 ~begin_:11.0 ~ack:20.0 ~snapshot:snap ~commit:None;
        ]
      in
      let v lo = List.length (Runlog.strong_consistency (log lo)) in
      v (snap_lo + extra) <= v snap_lo)

(* --- The flat run-log sink --- *)

(* Random records over every tier and field shape: ints at the
   extremes, NaN and infinite floats, empty and repeated strings, lists
   of 0, 1 and many elements. *)
let sink_record_gen =
  let open QCheck.Gen in
  let int = oneof [ return min_int; return max_int; return 0; int_range (-300) 300; int ] in
  let flt = oneof [ return nan; return infinity; return neg_infinity; return (-0.0); float ] in
  let str = oneof [ return ""; oneofl [ "t"; "warehouse" ]; string_size (int_range 0 12) ] in
  let strs = list_size (oneof [ return 0; return 1; int_range 2 6 ]) str in
  let tier =
    oneof
      [
        return Runlog.Strong;
        map2 (fun versions ms -> Runlog.Bounded { versions; ms }) (opt int) (opt flt);
        return Runlog.Causal;
        return Runlog.Eventual;
      ]
  in
  let* tid = int and* session = int and* begin_time = flt and* ack_time = flt in
  let* snapshot_version = int and* commit_version = opt int and* epoch = int in
  let* lb_epoch = int and* tier = tier and* table_set = strs and* tables_written = strs in
  let* write_keys = list_size (oneof [ return 0; return 1; int_range 2 6 ]) (pair str str) in
  let+ trace = opt int in
  {
    Runlog.tid;
    session;
    begin_time;
    ack_time;
    snapshot_version;
    commit_version;
    epoch;
    lb_epoch;
    tier;
    table_set;
    tables_written;
    write_keys;
    trace;
  }

(* Two batches of records, added to one sink across a [clear]: the
   sink gives back the second batch in order (under [compare], which
   takes NaN as equal to itself) and its digest. *)
let prop_sink_round_trip =
  let batch = QCheck.Gen.list_size (QCheck.Gen.int_range 0 30) sink_record_gen in
  QCheck.Test.make ~name:"runlog sink round-trips records across a clear" ~count:300
    (QCheck.make (QCheck.Gen.pair batch batch))
    (fun (before, after) ->
      let sink = Runlog.Sink.create ~capacity:16 () in
      List.iter (Runlog.Sink.add sink) before;
      let first = Runlog.Sink.records sink in
      Runlog.Sink.clear sink;
      List.iter (Runlog.Sink.add sink) after;
      let second = Runlog.Sink.records sink in
      (compare first before = 0 || QCheck.Test.fail_report "before the clear")
      && (compare second after = 0 || QCheck.Test.fail_report "after the clear")
      && Runlog.digest second = Runlog.digest after)

(* Decoded records share their table names: each name is the sink's
   one string for it, and every single-table set one list, whichever
   record and field it came from and across a [clear]. Fresh copies are
   added, so sharing cannot come from the input. *)
let test_sink_shares_tables () =
  let sink = Runlog.Sink.create () in
  let add tid =
    let t = String.init 1 (fun _ -> 't') in
    Runlog.Sink.add sink
      (record tid ~table_set:[ t ] ~written:[ String.concat "" [ t ] ]
         ~keys:[ (String.sub "tt" 0 1, string_of_int tid) ]
         ~begin_:0.0 ~ack:1.0 ~snapshot:0 ~commit:(Some tid))
  in
  add 1;
  Runlog.Sink.clear sink;
  add 2;
  add 3;
  match Runlog.Sink.records sink with
  | [ a; b ] ->
    Alcotest.(check bool) "one table-set list" true (a.table_set == b.table_set);
    Alcotest.(check bool) "written shares it" true (a.tables_written == b.table_set);
    Alcotest.(check bool) "key table is the name" true
      (fst (List.hd b.write_keys) == List.hd a.table_set)
  | l -> Alcotest.failf "%d records" (List.length l)

(* Every proper prefix of an encoding is refused: a cursor limited to
   it raises [Corrupt] instead of reading past its end, whether the cut
   falls inside a varint, a float or a string. *)
let test_flat_truncated () =
  let module Flat = Storage.Codec.Flat in
  let w = Flat.writer () in
  Flat.int w min_int;
  Flat.int w 300;
  Flat.float w nan;
  Flat.str w "warehouse";
  Flat.int w max_int;
  let decode c =
    ignore (Flat.read_int c);
    ignore (Flat.read_int c);
    ignore (Flat.read_float c);
    ignore (Flat.read_str c);
    Flat.read_int c
  in
  Alcotest.(check int) "whole buffer decodes" max_int (decode (Flat.cursor w));
  (* min_int and max_int take 9 bytes each, 300 takes 2, the float 8
     and the string 1 + 9. *)
  let full = 38 in
  let decodes limit =
    match decode (Flat.cursor ~limit w) with
    | _ -> true
    | exception Storage.Codec.Corrupt _ -> false
  in
  Alcotest.(check bool) "the encoding is 38 bytes" true (decodes full);
  for limit = 0 to full - 1 do
    if decodes limit then Alcotest.failf "a cut at %d of %d decoded" limit full
  done;
  let long = Flat.writer () in
  for _ = 1 to 10 do
    Flat.u8 long 0xff
  done;
  match Flat.read_int (Flat.cursor long) with
  | x -> Alcotest.failf "a 10-byte varint decoded to %d" x
  | exception Storage.Codec.Corrupt _ -> ()

(* --- Static SI serializability analysis --- *)

let test_si_write_skew_flagged () =
  (* The H3 shape: two transactions each read {x,y} and write one of
     them — the canonical SI write-skew. *)
  let profiles =
    [
      Si_analysis.profile ~name:"T1" ~reads:[ "x"; "y" ] ~writes:[ "x" ] ();
      Si_analysis.profile ~name:"T2" ~reads:[ "x"; "y" ] ~writes:[ "y" ] ();
    ]
  in
  Alcotest.(check bool) "write skew detected" false
    (Si_analysis.serializable_under_si profiles);
  match Si_analysis.dangerous_structures profiles with
  | [] -> Alcotest.fail "expected a dangerous structure"
  | d :: _ ->
    Alcotest.(check bool) "pivot is one of the two" true
      (d.Si_analysis.pivot = "T1" || d.Si_analysis.pivot = "T2")

let test_si_single_row_updates_safe () =
  (* The micro-benchmark shape: per-table point reads and blind
     read-modify-write updates. Concurrent updates of the same row
     write-write conflict, so no vulnerable rw path exists. *)
  let profiles =
    [
      Si_analysis.profile ~name:"read_t0" ~reads:[ "t0.val" ] ();
      Si_analysis.profile ~name:"upd_t0" ~writes:[ "t0.val" ] ();
      Si_analysis.profile ~name:"read_t1" ~reads:[ "t1.val" ] ();
      Si_analysis.profile ~name:"upd_t1" ~writes:[ "t1.val" ] ();
    ]
  in
  Alcotest.(check bool) "micro-benchmark serializable under SI" true
    (Si_analysis.serializable_under_si profiles)

let test_si_read_only_anomaly () =
  (* Fekete's checking/savings example: a read-only transaction makes an
     otherwise-serializable pair non-serializable. *)
  let deposit = Si_analysis.profile ~name:"deposit" ~reads:[ "sav" ] ~writes:[ "sav" ] () in
  let withdraw =
    Si_analysis.profile ~name:"withdraw" ~reads:[ "chk"; "sav" ] ~writes:[ "chk" ] ()
  in
  let report = Si_analysis.profile ~name:"report" ~reads:[ "chk"; "sav" ] () in
  Alcotest.(check bool) "without the report: serializable" true
    (Si_analysis.serializable_under_si [ deposit; withdraw ]);
  Alcotest.(check bool) "with the read-only report: anomaly possible" false
    (Si_analysis.serializable_under_si [ deposit; withdraw; report ])

let test_si_disjoint_safe () =
  let profiles =
    [
      Si_analysis.profile ~name:"a" ~reads:[ "x" ] ~writes:[ "x" ] ();
      Si_analysis.profile ~name:"b" ~reads:[ "y" ] ~writes:[ "y" ] ();
    ]
  in
  Alcotest.(check bool) "disjoint transactions serializable" true
    (Si_analysis.serializable_under_si profiles)

let test_si_edges () =
  let a = Si_analysis.profile ~name:"a" ~reads:[ "x" ] () in
  let b = Si_analysis.profile ~name:"b" ~writes:[ "x" ] () in
  let es = Si_analysis.edges [ a; b ] in
  Alcotest.(check bool) "a -rw-> b present" true
    (List.exists
       (fun e ->
         e.Si_analysis.src = "a" && e.Si_analysis.dst = "b" && e.Si_analysis.kind = `Rw)
       es);
  Alcotest.(check bool) "b -wr-> a present" true
    (List.exists
       (fun e ->
         e.Si_analysis.src = "b" && e.Si_analysis.dst = "a" && e.Si_analysis.kind = `Wr)
       es)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "check.histories",
      [
        Alcotest.test_case "H1: serializable, not strong" `Quick test_h1;
        Alcotest.test_case "H1: GSI-legal" `Quick test_h1_gsi_legal;
        Alcotest.test_case "H2: strong" `Quick test_h2;
        Alcotest.test_case "H3: strong + SI, not serializable" `Quick test_h3;
        Alcotest.test_case "first-committer-wins" `Quick test_first_committer_wins_violation;
        Alcotest.test_case "well-formedness" `Quick test_well_formed;
        Alcotest.test_case "commit-before-begin pairs" `Quick test_commits_before_begin;
      ] );
    ( "check.runlog",
      [
        Alcotest.test_case "strong ok" `Quick test_runlog_strong_ok;
        Alcotest.test_case "strong violation" `Quick test_runlog_strong_violation;
        Alcotest.test_case "fine-grained scoping" `Quick test_runlog_fine_scoping;
        Alcotest.test_case "session scoping" `Quick test_runlog_session_scoping;
        Alcotest.test_case "first-committer-wins" `Quick test_runlog_fcw;
        Alcotest.test_case "monotone session snapshots" `Quick test_runlog_monotone_session;
        Alcotest.test_case "monotone session: across an overlap" `Quick
          test_runlog_monotone_across_overlap;
        Alcotest.test_case "monotone session: across a weaker tier" `Quick
          test_runlog_monotone_across_weaker_tier;
        Alcotest.test_case "planted violations in a 20k-record log" `Quick
          test_planted_at_scale;
        Alcotest.test_case "flat cursor refuses truncated buffers" `Quick test_flat_truncated;
        Alcotest.test_case "decoded records share table names" `Quick test_sink_shares_tables;
      ]
      @ qsuite
          [ prop_strong_monotone_in_snapshot; prop_sweeps_match_oracle; prop_sink_round_trip ]
    );
    ( "check.si_analysis",
      [
        Alcotest.test_case "write skew flagged" `Quick test_si_write_skew_flagged;
        Alcotest.test_case "single-row updates safe" `Quick test_si_single_row_updates_safe;
        Alcotest.test_case "read-only anomaly" `Quick test_si_read_only_anomaly;
        Alcotest.test_case "disjoint safe" `Quick test_si_disjoint_safe;
        Alcotest.test_case "edge construction" `Quick test_si_edges;
      ] );
  ]
