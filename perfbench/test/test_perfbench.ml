(* The benchmark's own arithmetic and checks: quantiles from raw
   samples, open-loop lateness accounting, and failure detection. *)

open Perfbench

let feq = Alcotest.float 1e-9
let ints a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

let test_quantile () =
  let xs = [ 7.; 1.; 10.; 4.; 2.; 9.; 3.; 8.; 6.; 5. ] in
  Alcotest.check feq "p50 nearest rank" 5. (Stats.quantile xs 0.5);
  Alcotest.check feq "p90" 9. (Stats.quantile xs 0.9);
  Alcotest.check feq "p99" 10. (Stats.quantile xs 0.99);
  Alcotest.check feq "p100 is the max" 10. (Stats.quantile xs 1.0);
  Alcotest.check feq "p10" 1. (Stats.quantile xs 0.1);
  Alcotest.check feq "single sample" 42. (Stats.quantile [ 42. ] 0.5);
  Alcotest.check feq "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "even median averages" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample") (fun () ->
      ignore (Stats.quantile [] 0.5))

let test_tail () =
  let level_value = Alcotest.(pair (float 0.) (float 1e-9)) in
  Alcotest.check level_value "1000 samples: p99" (0.99, 990.) (Stats.tail (ints 1 1000));
  Alcotest.check level_value "100 samples: p90 (p99 leaves 1 beyond)" (0.9, 90.)
    (Stats.tail (ints 1 100));
  Alcotest.check level_value "15 samples: the max" (1.0, 15.) (Stats.tail (ints 1 15))

(* A generator stalled until t = 0.100 s sends two requests due at 0 and
   5 ms: their latency runs from the due time, so the stall is charged
   to both, and the lag records how late each left. *)
let test_lateness () =
  let reqs =
    Openloop.merge
      [
        Openloop.stream ~cls:Light ~rate:200. ~offset:0. ~start:0. ~duration:0.01
          ~seed_of:(fun _ i -> i);
        [ Openloop.make_req ~cls:Heavy ~index:0 ~seed:9 ~due:0.02 ];
      ]
  in
  Alcotest.(check (list (float 1e-12))) "due times" [ 0.; 0.005; 0.02 ]
    (Array.to_list (Array.map (fun (r : Openloop.req) -> r.due) reqs));
  let a = reqs.(0) and b = reqs.(1) and h = reqs.(2) in
  List.iter (fun (r : Openloop.req) -> r.sent <- 0.100) [ a; b ];
  a.finished <- 0.101;
  b.finished <- 0.103;
  a.outcome <- Done;
  b.outcome <- Done;
  (* The heavy request was sent on time but never answered. *)
  h.sent <- 0.02;
  let s = Openloop.summarize reqs in
  Alcotest.(check (list (float 1e-9))) "latency from due time" [ 101.; 98. ]
    (List.assoc Openloop.Light s.by_class);
  Alcotest.(check (list (float 1e-9))) "lag" [ 100.; 95.; 0. ] s.lags_ms;
  Alcotest.(check (list (float 1e-9))) "unanswered: no latency sample" []
    (List.assoc Openloop.Heavy s.by_class)

let test_failed_not_timed () =
  let r = Openloop.make_req ~cls:Light ~index:0 ~seed:1 ~due:0. in
  r.sent <- 0.;
  r.finished <- 0.001;
  r.outcome <- Failed "shed";
  let s = Openloop.summarize [| r |] in
  Alcotest.(check (list (float 0.))) "a failed request has no latency sample" []
    (List.assoc Openloop.Light s.by_class)

let digest =
  {
    Checks.protocol = "ft-leader-election";
    seed = 4096;
    verdict = "leader=52472";
    msgs = 3943733;
    bits = 328558060;
    rounds = 299;
  }

let test_digest () =
  let ok = function Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "pinned digest passes" true
    (ok (Checks.check_pinned ~workload_seed:Checks.default_seed ~index:0 digest));
  Alcotest.(check bool) "perturbed msgs fails" false
    (ok (Checks.check_pinned ~workload_seed:Checks.default_seed ~index:0
           { digest with msgs = digest.msgs + 1 }));
  Alcotest.(check bool) "perturbed leader fails" false
    (ok (Checks.check_pinned ~workload_seed:Checks.default_seed ~index:0
           { digest with verdict = "leader=1" }));
  Alcotest.(check bool) "other seeds are not pinned" true
    (ok (Checks.check_pinned ~workload_seed:2 ~index:0 { digest with msgs = 0 }));
  Alcotest.(check bool) "past the pinned prefix" true
    (ok (Checks.check_pinned ~workload_seed:Checks.default_seed ~index:99 digest))

let test_reply () =
  let expected = { Checks.ok = true; rounds = 12; msgs = 340; bits = 1700 } in
  let result ?(ok = true) ?(rounds = 12) ?(msgs = 340) ?(bits = 1700) () =
    Ftc_serve.Wire.Result
      { id = "al0"; ticket = 1; ok; detail = ""; rounds; msgs; bits; attempts = 1 }
  in
  let passes r = match Checks.check_reply ~expected r with Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "matching result" true (passes (result ()));
  Alcotest.(check bool) "msgs differ" false (passes (result ~msgs:341 ()));
  Alcotest.(check bool) "bits differ" false (passes (result ~bits:0 ()));
  Alcotest.(check bool) "rounds differ" false (passes (result ~rounds:11 ()));
  Alcotest.(check bool) "verdict differs" false (passes (result ~ok:false ()));
  Alcotest.(check bool) "shed" false
    (passes (Ftc_serve.Wire.Shed { id = "al0"; retry_after_ms = 5; draining = false }));
  Alcotest.(check bool) "failed" false
    (passes
       (Ftc_serve.Wire.Failed { id = "al0"; ticket = 1; class_ = "watchdog"; detail = "" }))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "quantile on known samples" `Quick test_quantile;
          Alcotest.test_case "tail level" `Quick test_tail;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "stall charged from due time" `Quick test_lateness;
          Alcotest.test_case "failed requests are not timed" `Quick test_failed_not_timed;
        ] );
      ( "checks",
        [
          Alcotest.test_case "perturbed digest fails" `Quick test_digest;
          Alcotest.test_case "mismatched serve result fails" `Quick test_reply;
        ] );
    ]
