(** The design-space exploration engine: determinism across worker-pool
    sizes, memoization (no re-scheduling of swept points), and the Pareto
    front's dominance over the swept set. *)

module Dse = Hls_dse.Dse
module Flow = Hls_flow.Flow

let base_options = { Flow.default_options with Flow.verify = false }

let example1_points () =
  Dse.grid_points
    (Dse.grid ~iis:[ Dse.Seq; Dse.Flat 2 ] ~latencies:[ (Some 3, Some 4) ]
       ~clocks:[ 1600.0; 2000.0 ] ())

let design () = Hls_designs.Example1.design ()

(** Everything observable about a result except wall-clock times and cache
    provenance — the fields required to be identical across pool sizes. *)
let signature (r : Dse.result) =
  let pr = r.Dse.r_profile in
  Printf.sprintf "%s | %s | passes=%d actions=%d queries=%d" (Dse.point_label r.Dse.r_point)
    (match r.Dse.r_flow with
    | Ok f -> Flow.summary f
    | Error d -> "error: " ^ Hls_diag.Diag.to_string d)
    pr.pr_passes pr.pr_actions pr.pr_queries

let test_determinism_across_jobs () =
  let pts = example1_points () in
  let sw1 = Dse.sweep ~jobs:1 (Dse.create ()) ~options:base_options (design ()) pts in
  (* max_workers lifted so the domain pool genuinely runs multi-domain
     even on a single-core host *)
  let engine4 = Dse.create () in
  let sw4 = Dse.sweep ~jobs:4 ~max_workers:4 engine4 ~options:base_options (design ()) pts in
  (* join the resident domains: later suites fork worker processes, and
     [Unix.fork] is illegal while sibling domains run *)
  Dse.shutdown engine4;
  Alcotest.(check int) "parallel pool actually used" 4 sw4.Dse.sw_jobs;
  Alcotest.(check (list string))
    "jobs=4 point results byte-identical to jobs=1"
    (List.map signature sw1.Dse.sw_results)
    (List.map signature sw4.Dse.sw_results)

let test_cache_hits () =
  let pts = example1_points () in
  let engine = Dse.create () in
  let sw1 = Dse.sweep ~jobs:1 engine ~options:base_options (design ()) pts in
  Alcotest.(check int) "first sweep runs every point" (List.length pts) sw1.Dse.sw_new_runs;
  let runs_after_first = Dse.runs_performed engine in
  let sw2 = Dse.sweep ~jobs:1 engine ~options:base_options (design ()) pts in
  Alcotest.(check int) "second sweep performs zero new runs" 0 sw2.Dse.sw_new_runs;
  Alcotest.(check int) "second sweep is all cache hits" (List.length pts) sw2.Dse.sw_cache_hits;
  Alcotest.(check int) "engine run counter unchanged" runs_after_first (Dse.runs_performed engine);
  Alcotest.(check bool) "every result marked cached" true
    (List.for_all (fun r -> r.Dse.r_profile.Dse.pr_cached) sw2.Dse.sw_results);
  Alcotest.(check (list string)) "cached results identical to fresh ones"
    (List.map signature sw1.Dse.sw_results)
    (List.map signature sw2.Dse.sw_results)

let test_overlapping_sweep () =
  let pts = example1_points () in
  let engine = Dse.create () in
  ignore (Dse.sweep engine ~options:base_options (design ()) pts);
  (* a sweep overlapping the first only schedules the genuinely new point *)
  let extra = Dse.point ~ii:3 ~min_latency:4 ~max_latency:4 ~clock_ps:1600.0 () in
  let sw = Dse.sweep engine ~options:base_options (design ()) (extra :: pts) in
  Alcotest.(check int) "only the new point runs" 1 sw.Dse.sw_new_runs;
  (* duplicate points inside one sweep are scheduled once *)
  let engine2 = Dse.create () in
  let sw2 = Dse.sweep engine2 ~options:base_options (design ()) (pts @ pts) in
  Alcotest.(check int) "duplicates deduplicated" (List.length pts) sw2.Dse.sw_new_runs;
  Alcotest.(check int) "all duplicates served" (2 * List.length pts)
    (List.length sw2.Dse.sw_results)

let test_grid_parse () =
  match Dse.parse_grid "ii=none,2;latency=3..4,8;clock=1600,2000" with
  | Error m -> Alcotest.fail m
  | Ok g ->
      Alcotest.(check int) "8 points" 8 (List.length (Dse.grid_points g));
      Alcotest.(check bool) "latency shorthand n means n..n" true
        (List.mem (Some 8, Some 8) g.Dse.g_latencies);
      (match Dse.parse_grid "ii=0" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ii=0 must be rejected");
      (match Dse.parse_grid "volt=1.2" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown dimension must be rejected");
      (* per-dimension II specs for loop nests *)
      (match Dse.parse_grid "ii=4x1,2" with
      | Error m -> Alcotest.fail m
      | Ok g ->
          Alcotest.(check (list string))
            "AxB parses to a per-dimension spec" [ "ii=4x1"; "ii=2" ]
            (List.map Dse.ii_label g.Dse.g_iis));
      (match Dse.parse_grid "ii=4x" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ii=4x must be rejected");
      (match Dse.parse_grid "ii=4x0" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "ii=4x0 must be rejected")

(* a small pool of candidate points; QCheck picks subsets by bitmask.  The
   shared engine makes repeated selections cache hits, so 30 iterations
   stay cheap. *)
let prop_front_dominates_sweep =
  let pool =
    Dse.grid_points
      (Dse.grid ~iis:[ Dse.Seq; Dse.Flat 2; Dse.Flat 3 ] ~latencies:[ (Some 3, Some 4) ]
         ~clocks:[ 1600.0; 2000.0 ] ())
    |> Array.of_list
  in
  let engine = Dse.create () in
  let d = design () in
  QCheck.Test.make ~name:"reported Pareto front dominates every swept point" ~count:30
    QCheck.(int_range 1 ((1 lsl Array.length pool) - 1))
    (fun mask ->
      let pts =
        List.filteri (fun i _ -> mask land (1 lsl i) <> 0) (Array.to_list pool)
      in
      let sw = Dse.sweep ~jobs:2 ~max_workers:2 engine ~options:base_options d pts in
      (* join the pool between iterations: the memo cache lives in the
         engine (so repeats stay hits), but resident domains would make
         [Unix.fork] in the later server suites illegal *)
      Dse.shutdown engine;
      let swept = Dse.pareto_points sw.Dse.sw_results in
      let front = Hls_report.Pareto.front swept in
      List.for_all
        (fun p ->
          List.exists
            (fun f ->
              f.Hls_report.Pareto.p_x <= p.Hls_report.Pareto.p_x
              && f.Hls_report.Pareto.p_y <= p.Hls_report.Pareto.p_y)
            front)
        swept)

(* [--jobs 0] and negative counts are user errors, not something to clamp
   silently: the driver surfaces a typed Explore-phase diagnostic. *)
let test_validate_jobs () =
  let check_bad n =
    match Dse.validate_jobs n with
    | Ok _ -> Alcotest.failf "jobs=%d accepted" n
    | Error d ->
        Alcotest.(check string) "code" "bad_jobs" d.Hls_diag.Diag.d_code;
        Alcotest.(check bool) "phase" true (d.Hls_diag.Diag.d_phase = Hls_diag.Diag.Explore)
  in
  check_bad 0;
  check_bad (-3);
  List.iter
    (fun n ->
      match Dse.validate_jobs n with
      | Ok m -> Alcotest.(check int) "passes through" n m
      | Error _ -> Alcotest.failf "jobs=%d rejected" n)
    [ 1; 4 ]

(* Pool lifecycle: shutdown joins every domain, refuses late work, and is
   idempotent; wait drains without stopping. *)
let test_pool_lifecycle () =
  let pool = Hls_dse.Dse.Pool.create ~workers:3 () in
  Alcotest.(check int) "resident domains" 3 (Hls_dse.Dse.Pool.size pool);
  Alcotest.(check bool) "alive" true (Hls_dse.Dse.Pool.alive pool);
  let hits = Atomic.make 0 in
  for _ = 1 to 32 do
    let accepted = Hls_dse.Dse.Pool.submit pool (fun () -> Atomic.incr hits) in
    Alcotest.(check bool) "submit accepted while alive" true accepted
  done;
  Hls_dse.Dse.Pool.wait pool;
  Alcotest.(check int) "all tasks ran" 32 (Atomic.get hits);
  Alcotest.(check bool) "still alive after wait" true (Hls_dse.Dse.Pool.alive pool);
  Hls_dse.Dse.Pool.shutdown pool;
  Alcotest.(check bool) "dead after shutdown" false (Hls_dse.Dse.Pool.alive pool);
  Alcotest.(check int) "no resident domains" 0 (Hls_dse.Dse.Pool.size pool);
  Alcotest.(check bool) "late submit refused" false
    (Hls_dse.Dse.Pool.submit pool (fun () -> Atomic.incr hits));
  Hls_dse.Dse.Pool.shutdown pool;
  Alcotest.(check int) "late task never ran" 32 (Atomic.get hits)

(* Shutdown is idempotent and safe to race: concurrent callers (as a
   signal handler and a drain thread might) each return cleanly, exactly
   one performs the join, and the pool ends dead with no resident
   domains. *)
let test_pool_shutdown_idempotent () =
  let pool = Hls_dse.Dse.Pool.create ~workers:2 () in
  let ran = Atomic.make 0 in
  for _ = 1 to 8 do
    ignore (Hls_dse.Dse.Pool.submit pool (fun () -> Atomic.incr ran))
  done;
  let racers =
    List.init 4 (fun _ -> Thread.create (fun () -> Hls_dse.Dse.Pool.shutdown pool) ())
  in
  List.iter Thread.join racers;
  (* …and again, serially, after it is already dead *)
  Hls_dse.Dse.Pool.shutdown pool;
  Hls_dse.Dse.Pool.shutdown pool;
  Alcotest.(check bool) "dead" false (Hls_dse.Dse.Pool.alive pool);
  Alcotest.(check int) "no resident domains" 0 (Hls_dse.Dse.Pool.size pool);
  Alcotest.(check int) "backlog completed exactly once" 8 (Atomic.get ran);
  Alcotest.(check bool) "submit after shutdown refused" false
    (Hls_dse.Dse.Pool.submit pool (fun () -> Atomic.incr ran));
  Alcotest.(check int) "refused task never ran" 8 (Atomic.get ran)

(* Queued tasks still run during a drain: shutdown finishes the backlog
   rather than dropping it. *)
let test_pool_drains_backlog () =
  let pool = Hls_dse.Dse.Pool.create ~workers:1 () in
  let ran = Atomic.make 0 in
  let gate = Mutex.create () in
  Mutex.lock gate;
  ignore
    (Hls_dse.Dse.Pool.submit pool (fun () ->
         Mutex.lock gate;
         Mutex.unlock gate;
         Atomic.incr ran));
  for _ = 1 to 5 do
    ignore (Hls_dse.Dse.Pool.submit pool (fun () -> Atomic.incr ran))
  done;
  (* backlog of 6 with the first task blocked; release and drain *)
  Mutex.unlock gate;
  Hls_dse.Dse.Pool.shutdown pool;
  Alcotest.(check int) "backlog completed during shutdown" 6 (Atomic.get ran)

(* Engine shutdown tears the resident pool down and a later sweep
   transparently rebuilds it. *)
let test_engine_pool_rebuild () =
  let engine = Dse.create () in
  let design = Hls_designs.Example1.design () in
  let options = { Hls_flow.Flow.default_options with verify = false } in
  let grid =
    match Dse.parse_grid "ii=2,4;latency=none;clock=1600" with
    | Ok g -> g
    | Error m -> Alcotest.fail m
  in
  let s1 = Dse.sweep ~jobs:2 engine ~options design (Dse.grid_points grid) in
  Dse.shutdown engine;
  let s2 = Dse.sweep ~jobs:2 engine ~options design (Dse.grid_points grid) in
  Dse.shutdown engine;
  Alcotest.(check int) "same point count after rebuild"
    (List.length s1.Dse.sw_results) (List.length s2.Dse.sw_results)

(* A dropped engine is garbage: nothing global (an exit hook, say) may keep
   it and its memo alive.  Both a serial sweep and a pooled one that was
   shut down leave the engine collectable. *)
let test_engine_collectable () =
  let collected = ref 0 in
  let[@inline never] sweep_and_drop ~jobs =
    let engine = Dse.create () in
    Gc.finalise (fun _ -> incr collected) engine;
    ignore (Dse.sweep ~jobs ~max_workers:jobs engine ~options:base_options (design ()) (example1_points ()));
    Dse.shutdown engine
  in
  sweep_and_drop ~jobs:1;
  sweep_and_drop ~jobs:2;
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check int) "both engines finalised" 2 !collected

let suite =
  [
    Alcotest.test_case "determinism across worker counts" `Quick test_determinism_across_jobs;
    Alcotest.test_case "pool lifecycle" `Quick test_pool_lifecycle;
    Alcotest.test_case "pool shutdown idempotent under races" `Quick test_pool_shutdown_idempotent;
    Alcotest.test_case "pool drains its backlog" `Quick test_pool_drains_backlog;
    Alcotest.test_case "engine pool rebuild after shutdown" `Quick test_engine_pool_rebuild;
    Alcotest.test_case "--jobs validation" `Quick test_validate_jobs;
    Alcotest.test_case "dropped engine is collected" `Quick test_engine_collectable;
    Alcotest.test_case "memo cache: zero re-runs" `Quick test_cache_hits;
    Alcotest.test_case "overlapping and duplicated sweeps" `Quick test_overlapping_sweep;
    Alcotest.test_case "grid parsing" `Quick test_grid_parse;
    QCheck_alcotest.to_alcotest prop_front_dominates_sweep;
  ]
