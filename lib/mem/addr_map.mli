(** Physical address mapping (Figure 2 of the paper).

    Two granularities are modelled:
    - {b cache-line granularity} over L2 banks: consecutive 64B lines map to
      consecutive banks (bits 6..10 in the paper's 32-bank example);
    - {b page granularity} over the memory system: within the page number,
      the low bits select the channel, then the rank, then the DRAM bank. *)

type t

val create :
  ?line_bits:int ->
  ?page_bits:int ->
  ?channel_bits:int ->
  ?rank_bits:int ->
  ?dram_bank_bits:int ->
  num_l2_banks:int ->
  unit ->
  t
(** Defaults follow the paper: 64B lines ([line_bits = 6]), 4KB pages
    ([page_bits = 12]), 4 channels, 4 ranks per channel, 8 banks per rank. *)

val page_bits : t -> int
val num_channels : t -> int

val line_of_addr : t -> int -> int
(** Cache-line (block) number of a physical address. *)

val page_of_addr : t -> int -> int

val l2_bank : t -> int -> int
(** Home L2 bank index of a physical address (cache-line interleaved). *)

val channel : t -> int -> int
(** Memory channel of a physical address (page-granularity bits). *)

val rank : t -> int -> int

val dram_bank : t -> int -> int

val same_line : t -> int -> int -> bool
(** Whether two addresses fall in the same cache line (spatial locality). *)
