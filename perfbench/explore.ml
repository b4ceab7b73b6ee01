(** The [explore] workload: [Dse.sweep] with feedback on over the paper's
    Fig. 10/11 IDCT grid and over small designs at clocks too tight for
    the relaxation, where the degradation ladder and the baseline engine
    serve the point.  A round sweeps every grid on a fresh engine, then
    repeats the same sweeps on the warm engine.  With feedback on, the
    repeat is not served from the memo: the fresh pass grows the engine's
    hint store, which changes every point's effective options, so each
    point runs again, hint-warmed.  The seed probe is one more one-point
    sweep in the fresh pass.  The latency sample is one sweep.

    The timed sweeps run with one job: with two domains on a two-core
    host, the per-round rate of one run ranged over 63-98 points/s and the
    per-round 90th percentile of point latency over 29-72 ms, against
    57-66 points/s and 23-31 ms with one.  The traced run adds one round
    with [pool_jobs] jobs, which takes [lib/pool]'s parallel path. *)

module Dse = Hls_dse.Dse
module Flow = Hls_flow.Flow

let jobs = 1

(** One pool domain per core. *)
let pool_jobs = Domain.recommended_domain_count ()

(** Timed rounds in a run of [seconds]: a fixed count, one per 1.2 s (a
    round's time on a two-core host), not as many as fit.  Each round's engine
    stays reachable after [Dse.shutdown] (the engine registers itself with
    [at_exit]), so the process grows by every round it runs, and peak RSS
    and the later rounds' speed depend on the round count; a fixed count
    keeps that exposure the same from run to run. *)
let rounds_for seconds = max 2 (int_of_float (Float.ceil (seconds /. 1.2)))

(** Fig. 10/11: at latency [l], non-pipelined and at II = l/2, at
    1200/1600/2400 ps. *)
let idct_points l =
  List.concat_map
    (fun ii ->
      List.map
        (fun clk -> Dse.point ?ii ~min_latency:l ~max_latency:l ~clock_ps:clk ())
        [ 1200.0; 1600.0; 2400.0 ])
    [ None; Some (l / 2) ]

let tight_points =
  List.concat_map
    (fun ii -> List.map (fun clk -> Dse.point ?ii ~clock_ps:clk ()) [ 700.0; 1000.0 ])
    [ None; Some 1; Some 2 ]

type grid = { name : string; design : unit -> Hls_frontend.Ast.design; points : Dse.point list }

let builtin n = List.assoc n Hls_server.Design_db.builtins

(** The Fig. 10/11 grid is swept one latency at a time (the later sweeps
    warm-start from the hints the earlier ones mined), so a round has
    thirteen sweeps (six grids twice, the probe once), ten of them of
    similar cost: the median and the 90th percentile of sweep latency
    fall inside that dense group. *)
let grids =
  List.map
    (fun l -> { name = Printf.sprintf "idct-l%d" l; design = builtin "idct"; points = idct_points l })
    [ 8; 16; 24; 32 ]
  @ [
      { name = "example1"; design = builtin "example1"; points = tight_points };
      { name = "fir8"; design = builtin "fir8"; points = tight_points };
    ]

let probe v =
  {
    name = "matvec4";
    design = builtin "matvec4";
    points = [ Dse.point ~clock_ps:(Compile.probe_clock_ps v) () ];
  }

let base_options v = { Flow.default_options with feedback = true; seed = Compile.stimulus_seed v }

let outcome_of (r : Dse.result) ~key =
  Outcome.of_view ~key:(key ^ "/" ^ Dse.point_label r.Dse.r_point) ~lint:false
    (Result.map Compile.view r.Dse.r_flow)

type round = {
  outcomes : Outcome.t list;  (** every point of every sweep *)
  latencies : float list;  (** wall seconds of each sweep *)
  points : int;
  fresh_runs : int;  (** points run, not served from the memo *)
  memo_hits : int;
  hint_reuse : int;  (** points warm-started from the hint store *)
  max_jobs : int;  (** the most pool workers a sweep used *)
  wall_s : float;
  cpu_s : float;  (** process CPU time over the round *)
  minor_words : float;
  major_collections : int;
}

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let round ?(jobs = jobs) v =
  let engine = Dse.create () in
  let options = base_options v in
  let c0 = cpu () and t0 = Measure.now () and gc0 = Gc.quick_stat () in
  let sweep pass g =
    let s0 = Measure.now () in
    let sw =
      Perfbench_probe.Span.with_ "dse.sweep" (fun () ->
          Dse.sweep ~jobs engine ~options (g.design ()) g.points)
    in
    (pass ^ ":" ^ g.name, sw, Measure.now () -. s0)
  in
  let fresh = List.map (sweep "fresh") (grids @ [ probe v ]) in
  let warm = List.map (sweep "warm") grids in
  let wall_s = Measure.now () -. t0 and cpu_s = cpu () -. c0 and gc1 = Gc.quick_stat () in
  Dse.shutdown engine;
  let sweeps = fresh @ warm in
  let total f = List.fold_left (fun a (_, sw, _) -> a + f sw) 0 sweeps in
  {
    outcomes =
      List.concat_map (fun (key, sw, _) -> List.map (outcome_of ~key) sw.Dse.sw_results) sweeps;
    latencies = List.map (fun (_, _, s) -> s) sweeps;
    points = total (fun sw -> List.length sw.Dse.sw_results);
    fresh_runs = total (fun sw -> sw.Dse.sw_new_runs);
    memo_hits = total (fun sw -> sw.Dse.sw_cache_hits);
    hint_reuse = total (fun sw -> sw.Dse.sw_hint_reuse);
    max_jobs = List.fold_left (fun a (_, sw, _) -> max a sw.Dse.sw_jobs) 0 sweeps;
    wall_s;
    cpu_s;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }
