(** Exactness of the scheduler on the benchmark corpus, and the cost of
    tracing.

    One digest per corpus design (the built-in designs but idct8x8, and
    the examples/*.bhv sources) at seq, II=1 and II=2, Tclk 1600 ps.  Each
    digest covers the timing-aware ASAP/ALAP ranges at the initial latency
    interval, the final schedule (every op's step, finish step and
    instance, the LI, pass count, relaxation actions and SCC stages) and
    every {!Scheduler.stats} counter but the wall clock.  A mismatch
    means the scheduler's decisions or its query counts changed. *)

open Hls_ir
open Hls_core

let lib = Hls_techlib.Library.artisan90
let clock_ps = 1600.0

let source name =
  match List.assoc_opt name Hls_server.Design_db.builtins with
  | Some f -> f ()
  | None ->
      let ic = open_in_bin (Filename.concat "../examples" (name ^ ".bhv")) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Hls_frontend.Parser.parse_string text

let region_of name ii =
  let elab = Hls_frontend.Elaborate.design (source name) in
  Hls_frontend.Elaborate.main_region ?ii elab

let repr_ranges b (region : Region.t) =
  match Asap_alap.compute ~lib ~clock_ps region with
  | exception Invalid_argument m -> Printf.bprintf b "aa-raise %s\n" m
  | aa ->
      List.iter
        (fun (o : Dfg.op) ->
          let r = Asap_alap.range aa o.Dfg.id in
          Printf.bprintf b "%d:%d..%d@%h;" o.Dfg.id r.Asap_alap.asap r.Asap_alap.alap
            r.Asap_alap.asap_arrival)
        (Region.member_ops region);
      Printf.bprintf b "|inf %s\n"
        (String.concat "," (List.map string_of_int aa.Asap_alap.infeasible))

let repr_schedule b (s : Scheduler.t) =
  Hls_netlist.Netlist.iter_placements s.Scheduler.s_binding.Binding.net (fun id pl ->
      Printf.bprintf b "%d=%d,%d,%d;" id pl.Binding.pl_step pl.Binding.pl_finish
        (Option.value pl.Binding.pl_inst ~default:(-1)));
  Printf.bprintf b "\nli %d passes %d\n" s.Scheduler.s_li s.Scheduler.s_passes;
  List.iter (fun a -> Printf.bprintf b "action %s\n" a) s.Scheduler.s_actions;
  List.iter
    (fun (ops, stage) ->
      Printf.bprintf b "scc [%s] %d\n" (String.concat "," (List.map string_of_int ops)) stage)
    s.Scheduler.s_scc_stages;
  let st = Scheduler.stats s in
  Printf.bprintf b "stats %d %d %d %d %d %d %d %d %d %d\n" st.Scheduler.st_passes
    st.Scheduler.st_actions st.Scheduler.st_queries st.Scheduler.st_trials
    st.Scheduler.st_commits st.Scheduler.st_rollbacks st.Scheduler.st_visits
    st.Scheduler.st_warm_passes st.Scheduler.st_cold_passes st.Scheduler.st_hints

let digest name ii =
  let b = Buffer.create 4096 in
  let region = region_of name ii in
  repr_ranges b region;
  (match Scheduler.schedule ~lib ~clock_ps region with
  | Ok s -> repr_schedule b s
  | Error e ->
      Printf.bprintf b "error %s %d [%s]\n" e.Scheduler.e_code e.Scheduler.e_passes
        (String.concat "; " e.Scheduler.e_actions));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* design -> digests at seq, II=1, II=2, recorded before the static op
   table replaced the per-query DFG lookups *)
let expected =
  [
    ( "example1",
      [ "e1da1d74e6a6a299ac2441feef01e70e"; "b8741c864acbf9c74d33bda0a74b200b"; "c05346ff0c6ac0e4b8c0eaec96408aaa" ] );
    ( "fir8",
      [ "45b064c2fc4d7cab7ae3e54b0ebdc5af"; "0b9c878dac2e3758b694d0c3b367990e"; "0e09bcb984e8c29e3822606f00ca6aa8" ] );
    ( "fir16",
      [ "b3c27c6da6fc21e4c64e1f5327861afa"; "20778e8c0240169244ed340bbade7a5b"; "d98b1260f2096be14acc00e309d6883f" ] );
    ( "fft",
      [ "0d5daee6aa86fa42df33e83013df22d9"; "a14c1592fcf8228e33dbfaef31a5b6ff"; "e53100e80a00032ff93e2623e4d7cabd" ] );
    ( "idct",
      [ "617a71531868e11f382cca55306f3d8d"; "0fe3999d41d1b76a50ce6dd396e6a90f"; "1290a2d05957cabc39eec08a40f515ba" ] );
    ( "sobel",
      [ "feac211a48c972e35d942ff3c5ea0a9d"; "ec73b073c9a26c030d9f3f3fbac031d3"; "01960cff82d012186dfbf8c1e87fb466" ] );
    ( "dotprod",
      [ "47c2b24c4646223495f87099520310ee"; "2bcd0d5d6a919098a37337d794f86b57"; "02c3f2ed5e448da6df92a9d02efcd80f" ] );
    ( "agc",
      [ "8f60484030b3ba9bdc07785d77dc63fb"; "91c5c9a45c0a1a4db599062daea8cf56"; "e68fb763dd1e3fcb5e6667f6f771858a" ] );
    ( "matvec4",
      [ "65c83af8d50853b8a71c490389f2fada"; "336c13813af912b458037eb386356963"; "6caf977e7e6d48119c57790bbd1ea047" ] );
    ( "matvec8",
      [ "ee32a9eff99bf9d55a1ed057b7c02975"; "12f3b7b24afa9d9c89b42a4acf00bde1"; "88659e172ad28fb5fda72f82e03e5c4c" ] );
    ( "gemm4",
      [ "eb7e071578b480b99dfe66f7a263c921"; "c620f451048bd41ca38dd09ec44a0ee9"; "c120300c8d24e669e17d917f9bfbb61d" ] );
    ( "matmul",
      [ "3ec4e32c2bd403ddb6d89ea2337e5b9d"; "3ec4e32c2bd403ddb6d89ea2337e5b9d"; "87aaf8b686f013ffd79d565e2f75d7cd" ] );
    ( "satacc",
      [ "90557a096aa34583a960a4c20727fe1e"; "1ea2ca5cd0142269a781e71976e826f6"; "90557a096aa34583a960a4c20727fe1e" ] );
    ( "stencil2d",
      [ "128b59d44bf0721b79a7ee8a86e820ee"; "946d7ddbe577f955205f5cec8bda2dc0"; "128b59d44bf0721b79a7ee8a86e820ee" ] );
  ]

let exact_case (name, digests) =
  Alcotest.test_case ("schedule exact: " ^ name) `Quick (fun () ->
      List.iter2
        (fun ii want ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s" name
               (match ii with None -> "seq" | Some i -> Printf.sprintf "II=%d" i))
            want (digest name ii))
        [ None; Some 1; Some 2 ] digests)

(* ------------------------------------------------------------------ *)
(* Tracing off costs nothing: a [None] trace must not even evaluate the
   arguments its format asks for. *)

let test_logf_none_is_free () =
  let called = ref false in
  Trace.logf None "%t" (fun () ->
      called := true;
      "");
  Trace.logf ~level:Trace.Debug None "%s %t" "x" (fun () ->
      called := true;
      "");
  Alcotest.(check bool) "format argument never called" false !called

(* Tracing on still tells the whole story: the per-level event counts and
   the text of a traced idct II=2 schedule are pinned. *)
let test_traced_narrative () =
  let trace = Trace.create () in
  (match Scheduler.schedule ~trace ~lib ~clock_ps (region_of "idct" (Some 2)) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "idct II=2: %s" e.Scheduler.e_message);
  let counts = List.map (fun (l, n) -> (Trace.level_to_string l, n)) (Trace.counts trace) in
  Alcotest.(check (list (pair string int)))
    "events per level"
    [ ("debug", 361); ("info", 18); ("warn", 14) ]
    counts;
  Alcotest.(check string)
    "event text digest" "7d8f294f3ffe9ccd6b035c9aeb8a22f5"
    (Digest.to_hex (Digest.string (String.concat "\n" (Trace.events trace))))

let suite =
  List.map exact_case expected
  @ [
      Alcotest.test_case "trace: logf None evaluates nothing" `Quick test_logf_none_is_free;
      Alcotest.test_case "trace: idct II=2 narrative" `Quick test_traced_narrative;
    ]
