(* The layer libraries under names that the traced library's shims
   ([perfbench/traced]) do not shadow. *)

module Core = Hls_core
module Frontend = Hls_frontend
module Rtl = Hls_rtl
module Sim = Hls_sim
