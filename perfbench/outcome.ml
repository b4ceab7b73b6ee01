(** What one compile (or sweep point) produced, reduced to what the
    benchmark checks and counts, and the expected-outcome table it is
    checked against. *)

type qor = { area : float; delay_ps : float; li : int; power_mw : float }

type t = {
  key : string;
  status : string;  (** ["ok:<tier>"] or ["err:<diagnostic code>"] *)
  qor : qor option;
  problems : string list;  (** failed output checks; empty = correct *)
  stats : Hls_core.Scheduler.stats option;
  degraded : bool;  (** served by a tier other than the requested one *)
  baseline : bool;  (** served by the baseline engine *)
  emit_bytes : int;
}

(** The fields of a flow result that the checks read; built from the
    shipped [Flow.t] and from the traced build's. *)
type view = {
  tier : string;
  qor_v : qor;
  verdict : Hls_sim.Equiv.verdict option;
  stats_v : Hls_core.Scheduler.stats;
  emit : unit -> string;
}

let of_view ~key ~lint (r : (view, Hls_diag.Diag.t) result) =
  match r with
  | Error d ->
      {
        key;
        status = "err:" ^ d.Hls_diag.Diag.d_code;
        qor = None;
        problems = [];
        stats = None;
        degraded = false;
        baseline = false;
        emit_bytes = 0;
      }
  | Ok v ->
      let verdict_problems =
        match v.verdict with
        | None -> [ key ^ ": no equivalence verdict" ]
        | Some vd when not vd.Hls_sim.Equiv.equivalent ->
            [ key ^ ": " ^ Hls_sim.Equiv.verdict_to_string vd ]
        | Some _ -> []
      in
      let emit_bytes, lint_problems =
        if not lint then (0, [])
        else
          let text = v.emit () in
          let findings =
            Perfbench_probe.Span.with_ "rtl.lint" (fun () -> Hls_rtl.Verilog.lint text)
          in
          (String.length text, List.map (fun f -> key ^ ": lint: " ^ f) findings)
      in
      {
        key;
        status = "ok:" ^ v.tier;
        qor = Some v.qor_v;
        problems = verdict_problems @ lint_problems;
        stats = Some v.stats_v;
        degraded = v.tier <> "requested";
        baseline = v.tier = "baseline";
        emit_bytes;
      }

let row t =
  match t.qor with
  | None -> t.status ^ "\t-\t-\t-\t-"
  | Some q -> Printf.sprintf "%s\t%.3f\t%.1f\t%d\t%.5f" t.status q.area q.delay_ps q.li q.power_mw

(* ------------------------------------------------------------------ *)
(* Expected table: [workload \t key \t status \t area \t delay_ps \t
   li \t power_mw], one line per input.  Keys are the same for every
   seed except the seed probe's, which names its clock. *)

let expected : (string, string) Hashtbl.t = Hashtbl.create 256
let table_key ~workload key = workload ^ "\t" ^ key

let load_expected path =
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       match String.split_on_char '\t' line with
       | w :: k :: rest when line <> "" && line.[0] <> '#' ->
           Hashtbl.replace expected (table_key ~workload:w k) (String.concat "\t" rest)
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic

(** Rows gathered by [--write-expected] instead of being checked, by
    table key. *)
let recording : (string, string) Hashtbl.t option ref = ref None

(** Check an outcome against its expected row; returns it with any
    mismatch added to its problems.  While recording, an input that gives
    two different rows (in two seeds' runs) is a problem too. *)
let check ~workload t =
  let k = table_key ~workload t.key in
  let table = match !recording with Some rows -> rows | None -> expected in
  match Hashtbl.find_opt table k with
  | None when !recording <> None ->
      Hashtbl.replace table k (row t);
      t
  | None -> { t with problems = (t.key ^ ": no expected row") :: t.problems }
  | Some r when r <> row t ->
      { t with problems = Printf.sprintf "%s: expected [%s], got [%s]" t.key r (row t) :: t.problems }
  | Some _ -> t
