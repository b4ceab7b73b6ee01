(** The layered benchmark of [hlsc]: one workload per run, every output
    checked, one JSON result line.  See [perfbench/METRICS.md].

    {v
      bench.exe --workload corpus|explore|serve --seed N --seconds S --trace 0|1
      bench.exe --write-expected
    v}

    Run from the repository root after building [bin/hlsc.exe]: it reads
    [examples/*.bhv] and [perfbench/expected.tsv], starts its own
    reference-slice helper ([bench.exe --reference], see [Host]) and
    [_build/default/bin/hlsc.exe] for [serve], and writes under
    [.perfbench/]. *)

module Span = Perfbench_probe.Span
module Scheduler = Hls_core.Scheduler
module Dse = Hls_dse.Dse

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let write_expected = ref false
let hlsc = "_build/default/bin/hlsc.exe"
let expected = "perfbench/expected.tsv"
let work_dir = ".perfbench"

(** What the benchmark keeps of a timed round (serve: of a timed phase):
    its latencies, its wall time, the scale to the nominal host speed
    from the reference slices just before and after it, and in the traced
    run its counts and QoR.  It keeps no outcome, so that its own memory
    does not grow with the number of rounds a run completes and
    [peak_rss_mb] follows the compiler. *)
type kept = {
  lat : float array;  (** seconds, one per compile, sweep or request *)
  ops : int;  (** compiles, sweep points or requests *)
  wall : float;  (** seconds *)
  scale : float;  (** nominal slice over the mean of the adjacent slices *)
  counts : (string * float) list;
  qor : Outcome.qor list;
}

(** The scale to the nominal speed between two slice means. *)
let scale_between before after = Host.nominal_s *. 2.0 /. (before +. after)

let ops_of kept = List.fold_left (fun a k -> a + k.ops) 0 kept
let latencies_of kept = List.concat_map (fun k -> Array.to_list k.lat) kept

let nominal_latencies_of kept =
  List.concat_map (fun k -> List.map (fun l -> l *. k.scale) (Array.to_list k.lat)) kept

let wall_of kept = Measure.sum (List.map (fun k -> k.wall) kept)
let nominal_wall_of kept = Measure.sum (List.map (fun k -> k.wall *. k.scale) kept)

(** What a workload run measured. *)
type report = {
  setup_s : float;  (** median set-up, as measured *)
  setup_nominal_s : float;  (** median set-up at the nominal host speed *)
  timed : kept list;  (** the timed rounds (serve: phases) *)
  rss_mb : float;
  qor : Outcome.qor list;
  layers : (string * float) list;  (** per-layer metrics (traced run) *)
}

(** Per-layer metric names and units, in output order.  A run reports
    every one; a layer its workload does not load reads 0. *)
let layer_metrics =
  [
    ("frontend.ms", "ms"); ("frontend.ops", "count"); ("sched.ms", "ms"); ("sched.alloc_mw", "Mword");
    ("sched.passes", "count"); ("sched.warm_passes", "count"); ("sched.actions", "count");
    ("netlist.queries", "count"); ("netlist.trials", "count"); ("netlist.rollbacks", "count");
    ("netlist.visits", "count"); ("netlist.commit_ratio", "ratio"); ("netlist.queries_per_s", "1/s");
    ("fold.ms", "ms"); ("rtl.area_ms", "ms"); ("rtl.power_ms", "ms"); ("rtl.emit_ms", "ms");
    ("rtl.emit_kb", "KiB"); ("sim.behav_ms", "ms"); ("sim.schedule_ms", "ms"); ("sim.kernel_ms", "ms");
    ("sim.cycles", "count"); ("sim.schedule_ns_per_cycle", "ns"); ("flow.self_ms", "ms");
    ("flow.degraded_share", "ratio"); ("flow.baseline_runs", "count"); ("dse.fresh_runs", "count");
    ("dse.memo_hit_ratio", "ratio"); ("dse.hint_reuse", "count"); ("dse.cpu_util", "ratio");
    ("serve.hit_ms", "ms"); ("serve.miss_ms", "ms"); ("serve.hit_ratio", "ratio");
    ("serve.store_hits", "count"); ("serve.coalesced", "count"); ("serve.shed", "count");
    ("serve.worker_crashes", "count"); ("store.entries", "count"); ("store.bytes", "bytes");
    ("store.quarantined", "count"); ("gc.minor_mw", "Mword"); ("gc.major_collections", "count");
    ("trace.overhead_pct", "%"); ("host.ref_ms", "ms");
  ]

(** Count metrics that must repeat exactly from round to round. *)
let exact_counts =
  [
    "frontend.ops"; "sched.passes"; "sched.warm_passes"; "sched.actions"; "netlist.queries";
    "netlist.trials"; "netlist.rollbacks"; "netlist.visits"; "sim.cycles"; "rtl.emit_kb";
    "dse.fresh_runs"; "dse.hint_reuse";
  ]

(* ------------------------------------------------------------------ *)
(* Checked operations *)

(** Operations run, set-up included; those whose output check failed;
    and every problem found, newest first.  A run-level problem (a traced
    count that does not repeat, a client thread that died) is a problem
    but no failed operation. *)
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let run_problem msg = problems := msg :: !problems

(** Count checked operations, each with the problems found in it. *)
let account (ops : string list list) =
  List.iter
    (fun ps ->
      incr attempted;
      if ps <> [] then begin
        incr failed;
        problems := List.rev_append ps !problems
      end)
    ops

let account_outcomes outcomes = account (List.map (fun o -> o.Outcome.problems) outcomes)

(* ------------------------------------------------------------------ *)
(* Shared helpers *)

(** A run is [segments] equal parts.  Each sets the workload up afresh,
    timed, then runs its share of the timed work, so the set-ups meet the
    shared host's fast and slow spells as the timed work does;
    [setup_s] is the median set-up. *)
let segments = 5

(** [segmented ~setup ~run]: the median set-up time, as measured and at
    the nominal host speed, and each segment's set-up value and result, in
    order.  A set-up is a fraction of a second, shorter than the host's
    swings, so each one is scaled by the reference slices run just before
    and just after it. *)
let segmented ~setup ~run =
  let segs =
    List.init segments (fun _ ->
        let before = Host.sample_mean 1 in
        let t0 = Measure.now () in
        let x = setup () in
        let setup_s = Measure.now () -. t0 in
        let after = Host.sample_mean 1 in
        ((setup_s, setup_s *. scale_between before after), (x, run x)))
  in
  let setups = List.map fst segs in
  ( (Measure.median (List.map fst setups), Measure.median (List.map snd setups)),
    List.map snd segs )

let ok_qor outcomes = List.filter_map (fun o -> o.Outcome.qor) outcomes

let sum_stats f outcomes =
  List.fold_left (fun a o -> match o.Outcome.stats with Some s -> a + f s | None -> a) 0 outcomes

(** Per-round counts from the outcomes' scheduler statistics. *)
let stats_counts outcomes =
  let s f = float_of_int (sum_stats f outcomes) in
  [
    ("sched.passes", s (fun x -> x.Scheduler.st_passes));
    ("sched.warm_passes", s (fun x -> x.Scheduler.st_warm_passes));
    ("sched.actions", s (fun x -> x.Scheduler.st_actions));
    ("netlist.queries", s (fun x -> x.Scheduler.st_queries));
    ("netlist.trials", s (fun x -> x.Scheduler.st_trials));
    ("netlist.rollbacks", s (fun x -> x.Scheduler.st_rollbacks));
    ("netlist.visits", s (fun x -> x.Scheduler.st_visits));
    ( "netlist.commit_ratio",
      Measure.ratio
        (sum_stats (fun x -> x.Scheduler.st_commits) outcomes)
        (sum_stats (fun x -> x.Scheduler.st_trials) outcomes) );
    ( "flow.degraded_share",
      Measure.ratio (List.length (List.filter (fun o -> o.Outcome.degraded) outcomes)) (List.length outcomes) );
    ("flow.baseline_runs", float_of_int (List.length (List.filter (fun o -> o.Outcome.baseline) outcomes)));
  ]

(** Every round's counts must equal the first round's. *)
let exactness rounds =
  match rounds with
  | [] | [ _ ] -> run_problem "exactness: fewer than two traced rounds"
  | first :: rest ->
      List.iter
        (fun counts ->
          List.iter
            (fun name ->
              match (List.assoc_opt name first, List.assoc_opt name counts) with
              | Some a, Some b when a <> b ->
                  run_problem
                    (Printf.sprintf "exactness: %s is %.0f in one traced round, %.0f in another" name a b)
              | _ -> ())
            exact_counts)
        rest

let check_traced_qor ~untraced ~traced =
  if traced <> untraced then run_problem "traced QoR differs from the untraced run"

let ensure_work_dir () = if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

(** Write the spans as a Chrome trace and print each layer's self time. *)
let dump_spans () =
  let spans = !Span.spans in
  ensure_work_dir ();
  let path = Printf.sprintf "%s/trace-%s-%d.json" work_dir !workload !seed in
  Span.write_chrome path spans;
  let selfs = Span.self_times spans in
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.t), self) ->
      let l = Span.layer s.Span.name in
      Hashtbl.replace by_layer l (self +. Option.value (Hashtbl.find_opt by_layer l) ~default:0.0))
    selfs;
  let total = Hashtbl.fold (fun _ v a -> a +. v) by_layer 0.0 in
  Printf.printf "trace: %d spans written to %s\nlayer self time:\n" (List.length spans) path;
  Hashtbl.fold (fun l v a -> (l, v) :: a) by_layer []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (l, v) ->
         Printf.printf "  %-10s %10.1f ms %5.1f%%\n" l (v *. 1000.0) (100.0 *. v /. Float.max total 1e-9));
  selfs

(** Mean self time per [per] of the spans [pick] selects, in ms. *)
let self_ms selfs ~per pick =
  1000.0
  *. Measure.sum (List.filter_map (fun ((s : Span.t), v) -> if pick s.Span.name then Some v else None) selfs)
  /. float_of_int (max 1 per)

let in_layer l name = Span.layer name = l

(** Traced over untraced time per round at the nominal host speed, minus
    one, in percent. *)
let overhead_pct ~plain ~traced =
  let per rounds = nominal_wall_of rounds /. float_of_int (max 1 (List.length rounds)) in
  100.0 *. ((per traced /. per plain) -. 1.0)

(* ------------------------------------------------------------------ *)
(* corpus *)

let corpus_round ~traced inputs =
  let r =
    List.map
      (fun inp ->
        incr Span.cid;
        let t0 = Measure.now () in
        let o = Span.with_ "compile" (fun () -> Compile.compile ~traced inp) in
        (Outcome.check ~workload:"corpus" o, Measure.now () -. t0))
      inputs
  in
  account_outcomes (List.map fst r);
  r

(** Whole rounds for at least [seconds] (and one round), with a reference
    slice before the first and after each. *)
let corpus_rounds ~traced ~seconds inputs =
  let t0 = Measure.now () in
  let rec go acc n before =
    if n >= 1 && Measure.now () -. t0 >= seconds then List.rev acc
    else begin
      Hashtbl.reset Span.counters;
      let gc0 = Gc.quick_stat () in
      let r0 = Measure.now () in
      let r = corpus_round ~traced inputs in
      let round_s = Measure.now () -. r0 in
      let gc1 = Gc.quick_stat () in
      let after = Host.sample_mean 1 in
      let outcomes = List.map fst r in
      let counts =
        if not traced then []
        else
          stats_counts outcomes
          @ [
              ("frontend.ops", float_of_int (Span.counter "frontend.ops"));
              ( "sim.cycles",
                float_of_int (Span.counter "sim.schedule_cycles" + Span.counter "sim.kernel_cycles") );
              ("sim.schedule_cycles", float_of_int (Span.counter "sim.schedule_cycles"));
              ( "rtl.emit_kb",
                float_of_int (List.fold_left (fun a o -> a + o.Outcome.emit_bytes) 0 outcomes) /. 1024.0 );
              ("gc.minor_mw", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6);
              ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
            ]
      in
      let k =
        {
          lat = Array.of_list (List.map snd r);
          ops = List.length r;
          wall = round_s;
          scale = scale_between before after;
          counts;
          qor = (if traced then ok_qor outcomes else []);
        }
      in
      go (k :: acc) (n + 1) after
    end
  in
  go [] 0 (Host.sample_mean 1)

let corpus () =
  let v = Compile.variant !seed in
  let share = !seconds /. float_of_int segments in
  (* a set-up builds the inputs and runs one untimed warm-up round *)
  let setup () =
    let inputs = Compile.corpus_inputs v in
    (inputs, ok_qor (List.map fst (corpus_round ~traced:false inputs)))
  in
  let run (inputs, _) =
    if !trace = 0 then (corpus_rounds ~traced:false ~seconds:share inputs, [])
    else begin
      let plain = corpus_rounds ~traced:false ~seconds:(share /. 2.0) inputs in
      Span.on := true;
      let traced = corpus_rounds ~traced:true ~seconds:(share /. 2.0) inputs in
      Span.on := false;
      (plain, traced)
    end
  in
  let (setup_s, setup_nominal_s), segs = segmented ~setup ~run in
  let qor = snd (fst (List.hd segs)) in
  let plain = List.concat_map (fun (_, (p, _)) -> p) segs
  and traced = List.concat_map (fun (_, (_, t)) -> t) segs in
  let report ~layers =
    { setup_s; setup_nominal_s; timed = plain @ traced; rss_mb = Measure.peak_rss_mb "self"; qor; layers }
  in
  if !trace = 0 then report ~layers:[]
  else begin
    let traced_counts = List.map (fun k -> k.counts) traced in
    check_traced_qor ~untraced:qor ~traced:(List.hd traced).qor;
    exactness traced_counts;
    let selfs = dump_spans () in
    let n = ops_of traced in
    let count name = List.assoc name (List.hd traced_counts) in
    let total name = Measure.sum (List.map (List.assoc name) traced_counts) in
    let per_compile name = total name /. float_of_int (max 1 n) in
    let span_s name =
      Measure.sum (List.filter_map (fun ((s : Span.t), _) ->
          if s.Span.name = name then Some (s.Span.t1 -. s.Span.t0) else None) selfs)
    in
    let layers =
      [
        ("frontend.ms", self_ms selfs ~per:n (in_layer "frontend"));
        ("sched.ms", self_ms selfs ~per:n (in_layer "sched"));
        ( "sched.alloc_mw",
          Measure.sum (List.filter_map (fun ((s : Span.t), _) ->
              if s.Span.name = "sched.schedule" then Some s.Span.minor_words else None) selfs)
          /. 1e6 /. float_of_int (max 1 n) );
        ("netlist.queries_per_s", total "netlist.queries" /. Float.max 1e-9 (span_s "sched.schedule"));
        ("fold.ms", self_ms selfs ~per:n (in_layer "fold"));
        ("rtl.area_ms", self_ms selfs ~per:n (( = ) "rtl.area"));
        ("rtl.power_ms", self_ms selfs ~per:n (( = ) "rtl.power"));
        ("rtl.emit_ms", self_ms selfs ~per:n (( = ) "rtl.emit"));
        ("sim.behav_ms", self_ms selfs ~per:n (( = ) "sim.behav"));
        ("sim.schedule_ms", self_ms selfs ~per:n (( = ) "sim.schedule"));
        ("sim.kernel_ms", self_ms selfs ~per:n (( = ) "sim.kernel"));
        ( "sim.schedule_ns_per_cycle",
          1e9 *. span_s "sim.schedule" /. Float.max 1.0 (total "sim.schedule_cycles") );
        ("flow.self_ms", self_ms selfs ~per:n (( = ) "flow.run"));
        ("gc.minor_mw", per_compile "gc.minor_mw");
        ("gc.major_collections", per_compile "gc.major_collections");
        ("trace.overhead_pct", overhead_pct ~plain ~traced);
      ]
      @ List.map
          (fun name -> (name, count name))
          [
            "frontend.ops"; "sched.passes"; "sched.warm_passes"; "sched.actions"; "netlist.queries";
            "netlist.trials"; "netlist.rollbacks"; "netlist.visits"; "netlist.commit_ratio";
            "rtl.emit_kb"; "sim.cycles"; "flow.degraded_share"; "flow.baseline_runs";
          ]
    in
    report ~layers
  end

(* ------------------------------------------------------------------ *)
(* explore *)

(** One round's per-layer counts. *)
let explore_counts (r : Explore.round) =
  let points = float_of_int r.Explore.points in
  let sched_s =
    Measure.sum
      (List.filter_map
         (fun o -> Option.map (fun s -> s.Scheduler.st_sched_s) o.Outcome.stats)
         r.Explore.outcomes)
  in
  let counts = stats_counts r.Explore.outcomes in
  counts
  @ [
      ("dse.fresh_runs", float_of_int r.Explore.fresh_runs);
      ("dse.hint_reuse", float_of_int r.Explore.hint_reuse);
      ("dse.memo_hit_ratio", float_of_int r.Explore.memo_hits /. points);
      ("sched.ms", 1000.0 *. sched_s /. points);
      ("netlist.queries_per_s", List.assoc "netlist.queries" counts /. Float.max 1e-9 sched_s);
      ("gc.minor_mw", r.Explore.minor_words /. 1e6 /. points);
      ("gc.major_collections", float_of_int r.Explore.major_collections /. points);
    ]

let explore () =
  let v = Compile.variant !seed in
  let round ?jobs () =
    let r = Explore.round ?jobs v in
    let r = { r with outcomes = List.map (Outcome.check ~workload:"explore") r.Explore.outcomes } in
    account_outcomes r.Explore.outcomes;
    r
  in
  let keep ~traced ~scale (r : Explore.round) =
    {
      lat = Array.of_list r.Explore.latencies;
      ops = r.Explore.points;
      wall = r.Explore.wall_s;
      scale;
      counts = (if traced then explore_counts r else []);
      qor = (if traced then ok_qor r.Explore.outcomes else []);
    }
  in
  (* a fixed number of rounds, see [Explore.rounds_for], with reference
     slices before the first and after each *)
  let rounds ~traced n =
    let before = ref (Host.sample_mean 5) in
    List.init n (fun _ ->
        let r = round () in
        let after = Host.sample_mean 5 in
        let k = keep ~traced ~scale:(scale_between !before after) r in
        before := after;
        k)
  in
  let per_segment = max 1 ((Explore.rounds_for !seconds + segments - 1) / segments) in
  (* a set-up is one untimed round on a fresh engine *)
  let setup () = ok_qor (round ()).Explore.outcomes in
  let run _ =
    if !trace = 0 then (rounds ~traced:false per_segment, [])
    else begin
      let plain = rounds ~traced:false (max 1 (per_segment / 2)) in
      Span.on := true;
      let traced = rounds ~traced:true (max 1 (per_segment - (per_segment / 2))) in
      Span.on := false;
      (plain, traced)
    end
  in
  let (setup_s, setup_nominal_s), segs = segmented ~setup ~run in
  let qor = fst (List.hd segs) in
  let plain = List.concat_map (fun (_, (p, _)) -> p) segs
  and traced = List.concat_map (fun (_, (_, t)) -> t) segs in
  let report ~layers =
    { setup_s; setup_nominal_s; timed = plain @ traced; rss_mb = Measure.peak_rss_mb "self"; qor; layers }
  in
  if !trace = 0 then report ~layers:[]
  else begin
    check_traced_qor ~untraced:qor ~traced:(List.hd traced).qor;
    let per_round = List.map (fun k -> k.counts) traced in
    exactness per_round;
    ignore (dump_spans ());
    (* one more round on [lib/pool]'s parallel path: its outputs are
       checked like every other round's, and it alone gives dse.cpu_util *)
    let pool = round ~jobs:Explore.pool_jobs () in
    if Explore.pool_jobs > 1 && pool.Explore.max_jobs < 2 then
      run_problem "explore: the pool round never ran more than one job";
    let layers =
      List.hd per_round
      @ [
          ("dse.cpu_util", pool.Explore.cpu_s /. (float_of_int Explore.pool_jobs *. pool.Explore.wall_s));
          ("trace.overhead_pct", overhead_pct ~plain ~traced);
        ]
    in
    report ~layers
  end

(* ------------------------------------------------------------------ *)
(* serve *)

let serve () =
  ensure_work_dir ();
  let base = Printf.sprintf "%s/serve-%d" work_dir (Unix.getpid ()) in
  let share = !seconds /. float_of_int segments in
  let refs = Serve.references () in
  let checked streams replies =
    account (List.map (fun r -> Option.to_list (Serve.check refs streams r)) replies);
    replies
  in
  let drive_errors errors = List.iter (fun e -> run_problem ("serve client: " ^ e)) errors in
  (* a set-up starts a daemon on a fresh store and sends each client's
     first-time warm-up specs *)
  let n = ref 0 in
  let setup () =
    incr n;
    let d = Serve.start ~hlsc ~dir:(Printf.sprintf "%s-%d" base !n) in
    let streams = List.init Serve.clients (fun client -> Serve.stream ~seed:!seed ~client) in
    let replies, errors =
      Serve.drive ~socket:d.Serve.socket ~streams ~warm_up:Serve.warm_up_specs ~until:None ~traced:false
    in
    drive_errors errors;
    (d, streams, checked streams replies)
  in
  let run (d, streams, _) =
    (* reference slices before and after each phase, while the daemon is
       idle; a phase's replies, and what is kept of it *)
    let before = ref (Host.sample_mean 10) in
    let phase ~seconds ~traced =
      Span.on := traced;
      let t0 = Measure.now () in
      let replies, errors =
        Serve.drive ~socket:d.Serve.socket ~streams ~warm_up:0 ~until:(Some (t0 +. seconds)) ~traced
      in
      let wall = Measure.now () -. t0 in
      Span.on := false;
      let after = Host.sample_mean 10 in
      let scale = scale_between !before after in
      before := after;
      drive_errors errors;
      let replies = checked streams replies in
      ( replies,
        {
          lat = Array.of_list (List.map (fun (r : Serve.reply) -> r.Serve.latency_s) replies);
          ops = List.length replies;
          wall;
          scale;
          counts = [];
          qor = [];
        } )
    in
    let phases =
      if !trace = 0 then [ phase ~seconds:share ~traced:false ]
      else [ phase ~seconds:(share /. 2.0) ~traced:false; phase ~seconds:(share /. 2.0) ~traced:true ]
    in
    let rss_mb = Serve.peak_rss_mb d in
    let stats = Serve.stats_json d.Serve.socket in
    Serve.stop d;
    (phases, rss_mb, stats)
  in
  let (setup_s, setup_nominal_s), segs = segmented ~setup ~run in
  let phases = List.concat_map (fun (_, (p, _, _)) -> p) segs in
  let timed = List.concat_map fst phases in
  let _, first_streams, warm = fst (List.hd segs) in
  let qor =
    List.filter_map
      (fun r ->
        match Serve.reference refs (Serve.spec_of first_streams r) with
        | Ok (f, _) -> Some (Compile.view f).Outcome.qor_v
        | Error _ -> None)
      warm
  in
  let layers =
    if !trace = 0 then []
    else begin
      ignore (dump_spans ());
      let nth_phase i = List.concat_map (fun (_, (p, _, _)) -> fst (List.nth p i)) segs in
      let cached (r : Serve.reply) =
        match r.Serve.answer with Ok o -> o.Hls_server.Protocol.o_cached | Error _ -> false
      in
      let p50_ms rs = 1000.0 *. Measure.median (List.map (fun (r : Serve.reply) -> r.Serve.latency_s) rs) in
      (* counters summed over the run's daemons *)
      let stat path =
        Measure.sum
          (List.map
             (fun (_, (_, _, stats)) ->
               float_of_int (match stats with Some j -> Serve.stat_int j path | None -> 0))
             segs)
      in
      if List.exists (fun (_, (_, _, stats)) -> stats = None) segs then
        run_problem "serve: a daemon did not answer the stats request";
      [
        ("serve.hit_ms", p50_ms (List.filter cached timed));
        ("serve.miss_ms", p50_ms (List.filter (fun r -> not (cached r)) timed));
        ("serve.hit_ratio", Measure.ratio (List.length (List.filter cached timed)) (List.length timed));
        ("serve.store_hits", stat [ "store"; "hits" ]);
        ("serve.coalesced", stat [ "jobs"; "coalesced" ]);
        ("serve.shed", stat [ "jobs"; "shed" ] +. stat [ "jobs"; "rejected" ]);
        ("serve.worker_crashes", stat [ "supervisor"; "crashes" ]);
        ("store.entries", stat [ "store"; "entries" ]);
        ("store.bytes", stat [ "store"; "bytes" ]);
        ("store.quarantined", stat [ "store"; "quarantined" ]);
        ("trace.overhead_pct", 100.0 *. ((p50_ms (nth_phase 1) /. p50_ms (nth_phase 0)) -. 1.0));
      ]
    end
  in
  {
    setup_s;
    setup_nominal_s;
    timed = List.map snd phases;
    rss_mb = List.fold_left (fun a (_, (_, rss, _)) -> Float.max a rss) 0.0 segs;
    qor;
    layers;
  }

(* ------------------------------------------------------------------ *)

(** Record one round of every variant of [corpus] and [explore]; fails if
    an input gives different rows in two variants. *)
let write_table path =
  let rows = Hashtbl.create 256 in
  Outcome.recording := Some rows;
  for v = 0 to Compile.variants - 1 do
    ignore (corpus_round ~traced:false (Compile.corpus_inputs v));
    account_outcomes (List.map (Outcome.check ~workload:"explore") (Explore.round v).Explore.outcomes)
  done;
  if !problems <> [] then begin
    List.iter prerr_endline (List.rev !problems);
    exit 1
  end;
  let oc = open_out path in
  output_string oc
    "# workload\tinput\toutcome\tarea\tdelay_ps\tli\tpower_mw  (perfbench/bench.exe --write-expected)\n";
  Hashtbl.fold (fun k r acc -> (k ^ "\t" ^ r) :: acc) rows []
  |> List.sort compare
  |> List.iter (fun line -> output_string oc (line ^ "\n"));
  close_out oc

(** Set-up, throughput and the two percentiles, from [latencies] and
    [wall] of the timed rounds. *)
let timings ~setup_s ~latencies ~wall r =
  ( setup_s,
    float_of_int (ops_of r.timed) /. wall,
    1000.0 *. Measure.percentile 0.5 latencies,
    1000.0 *. Measure.percentile 0.9 latencies )

let measured_timings r =
  timings ~setup_s:r.setup_s ~latencies:(latencies_of r.timed) ~wall:(wall_of r.timed) r

(** At the nominal host speed: every round (serve: phase) and every
    set-up scaled by its own adjacent reference slices (see [Host]). *)
let nominal_timings r =
  timings ~setup_s:r.setup_nominal_s ~latencies:(nominal_latencies_of r.timed)
    ~wall:(nominal_wall_of r.timed) r

let end_to_end r =
  let setup_s, per_s, p50, p90 = nominal_timings r in
  let g f = Measure.geomean (List.map f r.qor) in
  [
    Measure.m "setup_s" "s" setup_s;
    Measure.m "compiles_per_s" "1/s" per_s;
    Measure.m "p50_ms" "ms" p50;
    Measure.m "p90_ms" "ms" p90;
    Measure.m "peak_rss_mb" "MiB" r.rss_mb;
    Measure.m "qor_area" "area" (g (fun q -> q.Outcome.area));
    Measure.m "qor_delay_ps" "ps" (g (fun q -> q.Outcome.delay_ps));
    Measure.m "qor_li" "cycles" (g (fun q -> float_of_int q.Outcome.li));
    Measure.m "qor_power_mw" "mW" (g (fun q -> q.Outcome.power_mw));
  ]

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "corpus|explore|serve");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run: per-layer metrics");
      ("--write-expected", Arg.Set write_expected, " record the expected table and exit");
      ("--reference", Arg.Unit (fun () -> Host.helper_loop (); exit 0), " run as the reference-slice helper");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if !write_expected then write_table expected
  else begin
    Outcome.load_expected expected;
    Host.start ();
    at_exit Host.stop;
    let r =
      match !workload with
      | "corpus" -> corpus ()
      | "explore" -> explore ()
      | "serve" -> serve ()
      | w ->
          prerr_endline ("unknown workload: " ^ w);
          exit 2
    in
    Host.stop ();
    let layers = ("host.ref_ms", 1000.0 *. Host.mean_slice_s ()) :: r.layers in
    let metrics =
      if !trace = 0 then end_to_end r
      else
        List.map
          (fun (name, unit_) -> Measure.m name unit_ (Option.value (List.assoc_opt name layers) ~default:0.0))
          layer_metrics
    in
    List.iter
      (fun (x : Measure.metric) ->
        if not (Float.is_finite x.Measure.value) then run_problem (x.Measure.name ^ " is not a finite number"))
      metrics;
    List.iteri (fun i p -> if i < 20 then prerr_endline ("MISMATCH " ^ p)) (List.rev !problems);
    Printf.printf "%s: %d operations in %.2f s, %d of %d checked operations failed\n" !workload
      (ops_of r.timed) (wall_of r.timed) !failed !attempted;
    let setup_s, per_s, p50, p90 = measured_timings r in
    Printf.printf
      "as measured: setup_s %.4f, compiles_per_s %.2f, p50_ms %.4f, p90_ms %.4f; reference slice %.3f ms (nominal %.3f ms)\n"
      setup_s per_s p50 p90 (1000.0 *. Host.mean_slice_s ()) (1000.0 *. Host.nominal_s);
    Option.iter
      (Printf.printf "tracing overhead: %+.1f%% (traced over untraced)\n")
      (List.assoc_opt "trace.overhead_pct" r.layers);
    let correct = !problems = [] in
    Measure.print_result ~correct ~attempted:!attempted ~failed:!failed metrics;
    exit (if correct then 0 else 1)
  end
