type t = {
  line_bits : int;
  page_bits : int;
  channel_bits : int;
  rank_bits : int;
  dram_bank_bits : int;
  num_l2_banks : int;
}

let create ?(line_bits = 6) ?(page_bits = 12) ?(channel_bits = 2) ?(rank_bits = 2)
    ?(dram_bank_bits = 3) ~num_l2_banks () =
  if num_l2_banks <= 0 then invalid_arg "Addr_map.create: need at least one L2 bank";
  { line_bits; page_bits; channel_bits; rank_bits; dram_bank_bits; num_l2_banks }

let page_bits t = t.page_bits
let num_channels t = 1 lsl t.channel_bits

let line_of_addr t addr = addr lsr t.line_bits

let page_of_addr t addr = addr lsr t.page_bits

let l2_bank t addr = line_of_addr t addr mod t.num_l2_banks

let field addr ~shift ~bits = (addr lsr shift) land ((1 lsl bits) - 1)

let channel t addr = field addr ~shift:t.page_bits ~bits:t.channel_bits

let rank t addr = field addr ~shift:(t.page_bits + t.channel_bits) ~bits:t.rank_bits

let dram_bank t addr =
  field addr ~shift:(t.page_bits + t.channel_bits + t.rank_bits) ~bits:t.dram_bank_bits

let same_line t a b = line_of_addr t a = line_of_addr t b
