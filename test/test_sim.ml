(** Simulators: behavioural semantics, and functional equivalence between
    the golden model and the scheduled design across the whole design ×
    micro-architecture matrix. *)

open Hls_frontend
open Hls_core

let lib = Hls_techlib.Library.artisan90

let test_behav_basics () =
  let open Dsl in
  let d =
    design "acc" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 16 ] ~vars:[ var "s" 16 ]
      [
        "s" := int 0;
        wait;
        do_while [ "s" := v "s" +: port "a"; wait; write "y" (v "s") ] (int 1);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:4 [ ("a", [| 1; 2; 3; 4 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  Alcotest.(check (list int)) "running sums" [ 1; 3; 6; 10 ] (Hls_sim.Behav.port_values r "y");
  Alcotest.(check int) "four iterations" 4 r.Hls_sim.Behav.r_iters

let test_behav_if_semantics () =
  let open Dsl in
  let d =
    design "absd" ~ins:[ in_port "a" 8; in_port "b" 8 ] ~outs:[ out_port "y" 9 ]
      ~vars:[ var "x" 9 ]
      [
        "x" := int 0;
        wait;
        do_while
          [
            if_ (port "a" >: port "b") [ "x" := port "a" -: port "b" ] [ "x" := port "b" -: port "a" ];
            wait;
            write "y" (v "x");
          ]
          (int 1);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:3 [ ("a", [| 5; 2; 7 |]); ("b", [| 3; 9; 7 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  Alcotest.(check (list int)) "abs differences" [ 2; 7; 0 ] (Hls_sim.Behav.port_values r "y")

let test_behav_width_wrap () =
  let open Dsl in
  let d =
    design "wrap" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[ var "x" 8 ]
      [
        "x" := int 0;
        wait;
        do_while [ "x" := v "x" +: port "a"; wait; write "y" (v "x") ] (int 1);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:2 [ ("a", [| 100; 100 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  (* 200 wraps in 8 signed bits to -56 *)
  Alcotest.(check (list int)) "8-bit wraparound" [ 100; -56 ] (Hls_sim.Behav.port_values r "y")

let test_behav_exit_condition () =
  let open Dsl in
  let d =
    design "ex" ~ins:[ in_port "a" 8 ] ~outs:[ out_port "y" 8 ] ~vars:[ var "x" 8 ]
      [
        "x" := int 0;
        wait;
        do_while [ "x" := port "a"; wait; write "y" (v "x") ] (v "x" <>: int 0);
      ]
  in
  let stim = Hls_sim.Stimulus.create ~n_iters:5 [ ("a", [| 3; 7; 0; 9; 9 |]) ] in
  let r = Hls_sim.Behav.run d stim in
  Alcotest.(check int) "stops when a = 0" 3 r.Hls_sim.Behav.r_iters;
  Alcotest.(check (list int)) "outputs up to the exit" [ 3; 7; 0 ] (Hls_sim.Behav.port_values r "y")

(* ------------------------------------------------------------------ *)

let equiv_case name design ii n_iters seed =
  Alcotest.test_case
    (Printf.sprintf "%s%s" name (match ii with Some i -> Printf.sprintf " II=%d" i | None -> ""))
    `Quick
    (fun () ->
      let e = Elaborate.design design in
      let region = Elaborate.main_region ?ii e in
      match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
      | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message
      | Ok s ->
          let stim =
            Hls_sim.Stimulus.small_random ~seed ~n_iters ~ports:design.Ast.d_ins
          in
          let golden = Hls_sim.Behav.run design stim in
          let sim = Hls_sim.Schedule_sim.run e s stim in
          let v = Hls_sim.Equiv.check ~out_ports:design.Ast.d_outs golden sim in
          if not v.Hls_sim.Equiv.equivalent then
            Alcotest.fail (Hls_sim.Equiv.verdict_to_string v);
          Alcotest.(check bool) "nonempty check" true (v.Hls_sim.Equiv.checked_values > 0))

let test_throughput_matches_ii () =
  let d = Hls_designs.Example1.design () in
  let e = Elaborate.design d in
  let region = Elaborate.main_region ~ii:2 e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message
  | Ok s ->
      let stim = Hls_sim.Stimulus.small_random ~seed:5 ~n_iters:40 ~ports:d.Ast.d_ins in
      let sim = Hls_sim.Schedule_sim.run e s stim in
      (* steady state: ~II cycles per committed iteration plus the drain *)
      let expected = ((sim.Hls_sim.Schedule_sim.r_iters - 1) * 2) + s.Scheduler.s_li in
      Alcotest.(check int) "cycle count" expected sim.Hls_sim.Schedule_sim.r_cycles

let test_exec_counts_reflect_guards () =
  let d = Hls_designs.Example1.design () in
  let e = Elaborate.design d in
  let region = Elaborate.main_region e in
  match Scheduler.schedule ~lib ~clock_ps:1600.0 region with
  | Error err -> Alcotest.failf "schedule failed: %s" err.Scheduler.e_message
  | Ok s ->
      let stim = Hls_sim.Stimulus.small_random ~seed:5 ~n_iters:30 ~ports:d.Ast.d_ins in
      let sim = Hls_sim.Schedule_sim.run e s stim in
      (* every member op executes once per issued iteration in the
         predicated datapath model *)
      Hashtbl.iter
        (fun _op n ->
          Alcotest.(check bool) "bounded by issue count" true
            (n <= sim.Hls_sim.Schedule_sim.r_issued))
        sim.Hls_sim.Schedule_sim.r_exec_counts

(* ------------------------------------------------------------------ *)
(* Exactness: a digest of every field of [Schedule_sim.result], pinned
   for the benchmark corpus (the built-in designs but idct8x8 and the
   examples/*.bhv sources, sequential and at II=1 and II=2, 1600 ps).
   Each configuration is simulated under the flow's stimulus and under a
   full-width random one.  Under the flow's stimulus the set covers
   guarded writes (sobel, gemm4, matmul), loop exits before the stimulus
   ends and pipelined squash (gemm4, matmul: 64 iterations committed, 65
   issued at II=1).  A mismatch means the
   simulator's observable behaviour changed — or the schedule did, if the
   scheduler was touched. *)

let exact_repr b (r : Hls_sim.Schedule_sim.result) =
  let open Hls_sim.Schedule_sim in
  List.iter
    (fun o -> Printf.bprintf b "%s:%d:%d:%d;" o.o_port o.o_iter o.o_cycle o.o_value)
    r.r_outputs;
  Printf.bprintf b "|%d|%d|%d|" r.r_iters r.r_cycles r.r_issued;
  Hashtbl.fold (fun id n acc -> (id, n) :: acc) r.r_exec_counts []
  |> List.sort compare
  |> List.iter (fun (id, n) -> Printf.bprintf b "%d=%d;" id n);
  Buffer.add_char b '\n'

let exact_source name =
  match List.assoc_opt name Hls_server.Design_db.builtins with
  | Some f -> f ()
  | None ->
      let ic = open_in_bin (Filename.concat "../examples" (name ^ ".bhv")) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Parser.parse_string text

(* design -> digests at seq, II=1, II=2 *)
let exact_expected =
  [
    ( "example1",
      [ "346d6049ef8aabcf5cb0b67edc84d069"; "ab9e6ee4f044dbabcd7389e73af9e71d"; "a2cc97ba74409176106c92444e673fa6" ] );
    ( "fir8",
      [ "5581c8d423bfc6defd063f4568cb5c55"; "2d4219f973c46c9f68676cd58520dd7f"; "1367e4d1104e1fb47e5761d6f8b69245" ] );
    ( "fir16",
      [ "9cb420e805e0f9ca51c8cec1e277451a"; "781a16328f44328309cf1c06aaf9ee03"; "f6e708ffdfe7792c34514fa5f2c354dc" ] );
    ( "fft",
      [ "7ab0f3bd2c5b6b7eff3654fa9a677f67"; "0f5599ecd02dafcc7353007a9fb4f51b"; "4d1e796512679ee90f84ffcca029b3c3" ] );
    ( "idct",
      [ "f66268c7511f184c4ad5b4526656cb34"; "844698b4f18c8f7c1bcd842595eca770"; "42a6a9bb9c30ddcbbf9d29eee82d9b0e" ] );
    ( "sobel",
      [ "306c417604d6765302dafda4522c0f49"; "0131046c61dc3a011d0e170e0cc90b49"; "9bf4446ef366ac2afdc89e9043da1314" ] );
    ( "dotprod",
      [ "5fe74b5a850069e7acafd95af3d892fd"; "2b5c8a98e5988917a9f84aa7836e40db"; "0791406dd5619fc6c2ed027e70cfc243" ] );
    ( "agc",
      [ "c8e403fd48669238b438ea51c74c3f8c"; "b2dba5313f60cf16e69d46f24d17d36f"; "8200c427effaf833cd72900540252519" ] );
    ( "matvec4",
      [ "6bc1ce45e0e35eb9dfd8b1b85aefe531"; "d7d7c87570101bc66d478a18137a74da"; "117a0da3fec1f109a79ea275359eb89a" ] );
    ( "matvec8",
      [ "cc20c7d257a75a5d3a038196b9ac339f"; "65497bfb61ebf04dc98e6a7c2b37b632"; "aa3487c65c40742da098c835d905e836" ] );
    ( "gemm4",
      [ "ef32bd32dd61a3de2e5681952f59d89c"; "3a0858de2abcd060192184355ac9d9ab"; "6210314f41c4cff5c43d69c11bd5a347" ] );
    ( "matmul",
      [ "bd0109a35cad5f1e5e7464820114c9be"; "bd0109a35cad5f1e5e7464820114c9be"; "714d4a13e2d74e9f626c2dd0c413350f" ] );
    ( "satacc",
      [ "41ce9ad6bab76cfcf1934de451f247e1"; "1afb0ec7d44a85c0e035739df45ce2b1"; "41ce9ad6bab76cfcf1934de451f247e1" ] );
    ( "stencil2d",
      [ "8bd09adc4aef27511e46d3a2f7d993ed"; "8bd09adc4aef27511e46d3a2f7d993ed"; "8bd09adc4aef27511e46d3a2f7d993ed" ] );
  ]

let exact_run name ii =
  let design = exact_source name in
  let options = { Hls_flow.Flow.default_options with ii; verify = false } in
  match Hls_flow.Flow.run ~options design with
  | Error d -> Alcotest.failf "%s: flow failed: %s" name (Hls_diag.Diag.to_string d)
  | Ok f ->
      let sim stim = Hls_sim.Schedule_sim.run f.Hls_flow.Flow.f_elab f.Hls_flow.Flow.f_sched stim in
      let ports = design.Ast.d_ins in
      let flow_stim =
        Hls_sim.Stimulus.small_random ~seed:options.seed ~n_iters:options.sim_iters ~ports
      in
      let wide_stim = Hls_sim.Stimulus.random ~seed:7 ~n_iters:37 ~ports in
      let a = sim flow_stim and b = sim wide_stim in
      let buf = Buffer.create 4096 in
      exact_repr buf a;
      exact_repr buf b;
      ( Digest.to_hex (Digest.string (Buffer.contents buf)),
        a.Hls_sim.Schedule_sim.r_issued > a.Hls_sim.Schedule_sim.r_iters )

let exact_case (name, digests) =
  Alcotest.test_case ("schedule-sim exact: " ^ name) `Quick (fun () ->
      List.iter2
        (fun ii expected ->
          let got, _ = exact_run name ii in
          Alcotest.(check string)
            (Printf.sprintf "%s %s" name
               (match ii with None -> "seq" | Some i -> Printf.sprintf "II=%d" i))
            expected got)
        [ None; Some 1; Some 2 ] digests)

let test_exact_covers_squash () =
  Alcotest.(check bool) "gemm4 II=1 issues more iterations than it commits" true
    (snd (exact_run "gemm4" (Some 1)))

let suite =
  [
    Alcotest.test_case "behav: accumulator" `Quick test_behav_basics;
    Alcotest.test_case "behav: conditionals" `Quick test_behav_if_semantics;
    Alcotest.test_case "behav: width wraparound" `Quick test_behav_width_wrap;
    Alcotest.test_case "behav: data-dependent exit" `Quick test_behav_exit_condition;
    equiv_case "example1" (Hls_designs.Example1.design ()) None 60 1;
    equiv_case "example1" (Hls_designs.Example1.design ()) (Some 2) 60 2;
    equiv_case "example1" (Hls_designs.Example1.design ()) (Some 1) 60 3;
    equiv_case "fir8" (Hls_designs.Fir.design ()) None 40 4;
    equiv_case "fir8" (Hls_designs.Fir.design ()) (Some 1) 40 5;
    equiv_case "fir4" (Hls_designs.Fir.design ~taps:4 ()) (Some 2) 40 6;
    equiv_case "fft" (Hls_designs.Fft.design ()) None 30 7;
    equiv_case "fft" (Hls_designs.Fft.design ()) (Some 1) 30 8;
    equiv_case "sobel" (Hls_designs.Conv.design ()) None 30 9;
    equiv_case "sobel" (Hls_designs.Conv.design ()) (Some 1) 30 10;
    equiv_case "dotprod" (Hls_designs.Dotprod.design ()) None 30 11;
    equiv_case "dotprod" (Hls_designs.Dotprod.design ()) (Some 1) 30 12;
    equiv_case "idct" (Hls_designs.Idct.design ()) None 10 13;
    equiv_case "idct" (Hls_designs.Idct.design ()) (Some 4) 10 14;
    equiv_case "synthetic" (Hls_designs.Synthetic.design ()) None 20 15;
    equiv_case "matvec4" (Hls_designs.Matmul.design ()) None 25 16;
    equiv_case "matvec4" (Hls_designs.Matmul.design ()) (Some 2) 25 17;
    equiv_case "matvec8" (Hls_designs.Matmul.design ~n:8 ()) (Some 1) 20 18;
    equiv_case "idct8x8" (Hls_designs.Idct2d.design ()) None 32 19;
    Alcotest.test_case "throughput matches II" `Quick test_throughput_matches_ii;
    Alcotest.test_case "exec counts bounded" `Quick test_exec_counts_reflect_guards;
    Alcotest.test_case "schedule-sim exact: squash covered" `Quick test_exact_covers_squash;
  ]
  @ List.map exact_case exact_expected
