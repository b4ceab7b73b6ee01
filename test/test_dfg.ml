(** DFG construction, rewiring and analysis. *)

open Hls_ir

let mk () = Dfg.create ()

let add g kind ~width = (Dfg.add_op g kind ~width).Dfg.id

let test_build_and_find () =
  let g = mk () in
  let a = add g (Opkind.Const 5) ~width:4 in
  let b = add g (Opkind.Read "x") ~width:8 in
  let s = add g (Opkind.Bin Opkind.Add) ~width:9 in
  Dfg.connect g ~src:a ~dst:s ~port:0;
  Dfg.connect g ~src:b ~dst:s ~port:1;
  Alcotest.(check int) "size" 3 (Dfg.size g);
  Alcotest.(check (list int)) "preds sorted by port" [ a; b ] (Dfg.preds g s);
  Alcotest.(check (list int)) "succs of a" [ s ] (Dfg.succs g a);
  Alcotest.(check bool) "validate clean" true (Dfg.validate g = [])

let test_connect_replaces_port () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let b = add g (Opkind.Const 2) ~width:3 in
  let u = add g (Opkind.Un Opkind.Neg) ~width:4 in
  Dfg.connect g ~src:a ~dst:u ~port:0;
  Dfg.connect g ~src:b ~dst:u ~port:0;
  Alcotest.(check (list int)) "second connect wins" [ b ] (Dfg.preds g u)

let test_replace_uses () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let b = add g (Opkind.Const 2) ~width:2 in
  let u1 = add g (Opkind.Un Opkind.Neg) ~width:3 in
  let u2 = add g (Opkind.Un Opkind.Bnot) ~width:2 in
  Dfg.connect g ~src:a ~dst:u1 ~port:0;
  Dfg.connect g ~src:a ~dst:u2 ~port:0;
  Dfg.replace_uses g ~old_id:a ~by:b;
  Alcotest.(check (list int)) "u1 rewired" [ b ] (Dfg.preds g u1);
  Alcotest.(check (list int)) "u2 rewired" [ b ] (Dfg.preds g u2);
  Alcotest.(check (list int)) "a has no consumers" [] (Dfg.succs g a)

let test_replace_uses_guards () =
  let g = mk () in
  let c1 = add g (Opkind.Bin Opkind.Gt) ~width:1 in
  let c2 = add g (Opkind.Bin Opkind.Lt) ~width:1 in
  let guarded =
    Dfg.add_op g (Opkind.Const 7) ~width:4
      ~guard:(Option.get (Guard.add Guard.always ~pred:c1 ~polarity:true))
  in
  Dfg.replace_uses g ~old_id:c1 ~by:c2;
  Alcotest.(check (list int)) "guard predicate rewritten" [ c2 ] (Guard.preds guarded.Dfg.guard)

let test_loop_carried_scc () =
  let g = mk () in
  let init = add g (Opkind.Const 0) ~width:8 in
  let lm = add g Opkind.Loop_mux ~width:8 in
  let inc = add g (Opkind.Bin Opkind.Add) ~width:8 in
  let one = add g (Opkind.Const 1) ~width:2 in
  Dfg.connect g ~src:init ~dst:lm ~port:0;
  Dfg.connect g ~src:lm ~dst:inc ~port:0;
  Dfg.connect g ~src:one ~dst:inc ~port:1;
  Dfg.connect g ~src:inc ~dst:lm ~port:1 ~distance:1;
  let sccs = Dfg.sccs g in
  Alcotest.(check int) "one SCC" 1 (List.length sccs);
  Alcotest.(check (list int)) "accumulator cycle" [ lm; inc ] (List.sort compare (List.hd sccs));
  (* topo over distance-0 edges must still succeed *)
  Alcotest.(check int) "topo covers all ops" 4 (List.length (Dfg.topo_order g))

let test_remove_op () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let u = add g (Opkind.Un Opkind.Neg) ~width:3 in
  Dfg.connect g ~src:a ~dst:u ~port:0;
  Dfg.remove_op g u;
  Alcotest.(check int) "one op left" 1 (Dfg.size g);
  Alcotest.(check (list int)) "a loses consumer" [] (Dfg.succs g a)

let test_validate_errors () =
  let g = mk () in
  let a = add g (Opkind.Bin Opkind.Add) ~width:4 in
  ignore a;
  Alcotest.(check bool) "missing inputs flagged" true (Dfg.validate g <> []);
  let g2 = mk () in
  let lm = add g2 Opkind.Loop_mux ~width:4 in
  let c = add g2 (Opkind.Const 0) ~width:4 in
  Dfg.connect g2 ~src:c ~dst:lm ~port:0;
  Dfg.connect g2 ~src:c ~dst:lm ~port:1;
  (* port-1 edge must be loop-carried *)
  Alcotest.(check bool) "loop_mux distance-0 carried edge flagged" true (Dfg.validate g2 <> [])

let test_fanout_cone () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let b = add g (Opkind.Un Opkind.Neg) ~width:3 in
  let c = add g (Opkind.Un Opkind.Bnot) ~width:3 in
  let d = add g (Opkind.Bin Opkind.Add) ~width:4 in
  Dfg.connect g ~src:a ~dst:b ~port:0;
  Dfg.connect g ~src:b ~dst:c ~port:0;
  Dfg.connect g ~src:b ~dst:d ~port:0;
  Dfg.connect g ~src:c ~dst:d ~port:1;
  Alcotest.(check int) "cone of a" 3 (Dfg.fanout_cone_size g a);
  Alcotest.(check int) "cone of d" 0 (Dfg.fanout_cone_size g d)

let test_copy_isolation () =
  let g = mk () in
  let a = add g (Opkind.Const 1) ~width:2 in
  let g' = Dfg.copy g in
  (Dfg.find g' a).Dfg.name <- "changed";
  Alcotest.(check bool) "copy does not alias" false ((Dfg.find g a).Dfg.name = "changed")

let test_in_edges_port_order () =
  let g = mk () in
  let srcs = Array.init 5 (fun i -> add g (Opkind.Const i) ~width:4) in
  let m = add g Opkind.Mux ~width:4 in
  let ports () = List.map (fun e -> e.Dfg.port) (Dfg.in_edges g m) in
  Dfg.connect g ~src:srcs.(0) ~dst:m ~port:2;
  Dfg.connect g ~src:srcs.(1) ~dst:m ~port:0;
  Dfg.connect g ~src:srcs.(2) ~dst:m ~port:1;
  Alcotest.(check (list int)) "connected out of order" [ 0; 1; 2 ] (ports ());
  Dfg.connect g ~src:srcs.(3) ~dst:m ~port:1;
  Alcotest.(check (list int)) "reconnect keeps the order" [ srcs.(1); srcs.(3); srcs.(0) ] (Dfg.preds g m);
  Dfg.replace_uses g ~old_id:srcs.(1) ~by:srcs.(4);
  Alcotest.(check (list int)) "replace_uses keeps the order" [ srcs.(4); srcs.(3); srcs.(0) ]
    (Dfg.preds g m);
  Dfg.remove_op g srcs.(3);
  Alcotest.(check (list int)) "remove_op keeps the order" [ 0; 2 ] (ports ());
  Alcotest.(check (list int)) "remaining producers" [ srcs.(4); srcs.(0) ] (Dfg.preds g m)

let suite =
  [
    Alcotest.test_case "build and find" `Quick test_build_and_find;
    Alcotest.test_case "connect replaces port" `Quick test_connect_replaces_port;
    Alcotest.test_case "replace_uses" `Quick test_replace_uses;
    Alcotest.test_case "replace_uses rewrites guards" `Quick test_replace_uses_guards;
    Alcotest.test_case "loop-carried SCC" `Quick test_loop_carried_scc;
    Alcotest.test_case "remove op" `Quick test_remove_op;
    Alcotest.test_case "validate errors" `Quick test_validate_errors;
    Alcotest.test_case "fanout cone" `Quick test_fanout_cone;
    Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
    Alcotest.test_case "in_edges port order" `Quick test_in_edges_port_order;
  ]
