"""VHDL emission for the ROM-based FSM.

The paper's flow instantiates BlockRAMs in VHDL with their contents
"initialized in the VHDL code; we have written a C program to
automatically generate the VHDL initialization string for these
blockrams" (section 5).  This module is that program:

* :func:`bram_init_strings` packs the ROM words into the Virtex-II
  ``INIT_00`` … ``INIT_3F`` attribute strings (64 attributes × 256 bits
  covering the 16-Kbit data array, hex, MSB-first within each string);
* :func:`rom_fsm_vhdl` emits a complete synthesizable entity: a ROM
  array with a synchronous read process (the template synthesis tools
  infer a BlockRAM from), the state/input address concatenation, the
  per-state input multiplexer when column compaction is in use, and the
  idle-state enable expression when clock control is in use.

The emitted text is deterministic, making it testable and diffable.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.romfsm.impl import RomFsmImplementation

__all__ = ["bram_init_strings", "bram_initp_strings", "rom_fsm_vhdl",
           "rom_fsm_vhdl_structural"]

_INIT_BITS = 256            # bits per INIT_xx / INITP_xx attribute
_INIT_COUNT = 64            # INIT_00 .. INIT_3F
_INITP_COUNT = 8            # INITP_00 .. INITP_07
_ARRAY_BITS = _INIT_BITS * _INIT_COUNT    # 16-Kbit data array
_PARITY_BITS = _INIT_BITS * _INITP_COUNT  # 2-Kbit parity array


def _split_word(word: int, width: int) -> "tuple[int, int]":
    """Split a word into (data bits, parity bits) per the x9 unit layout.

    Widths divisible by 9 interleave one parity bit per byte: bits
    ``8, 17, 26, 35`` of the word go to the parity array, the rest to
    the data array.  Other widths are pure data.
    """
    if width % 9 != 0:
        return word, 0
    data = 0
    parity = 0
    units = width // 9
    for u in range(units):
        unit = (word >> (u * 9)) & 0x1FF
        data |= (unit & 0xFF) << (u * 8)
        parity |= (unit >> 8) << u
    return data, parity


def _chunk_strings(array: int, count: int) -> List[str]:
    mask = (1 << _INIT_BITS) - 1
    return [
        f"{(array >> (i * _INIT_BITS)) & mask:064X}" for i in range(count)
    ]


def bram_init_strings(words: Sequence[int], width: int) -> List[str]:
    """Pack the *data* bits of ``words`` into 64 Virtex-II INIT strings.

    Words are laid out consecutively, LSB of word 0 at array bit 0 (the
    layout the Virtex-II data sheet describes for the 16-Kbit data
    array).  For the parity-carrying aspect ratios (x9/x18/x36) each
    word's parity bits go to the separate 2-Kbit parity array — see
    :func:`bram_initp_strings`.  Each string is 64 hex characters,
    most-significant nibble first.
    """
    if width <= 0:
        raise ValueError("word width must be positive")
    data_width = width - (width // 9 if width % 9 == 0 else 0)
    total = len(words) * data_width
    if total > _ARRAY_BITS:
        raise ValueError(
            f"{len(words)} x {data_width}-data-bit words exceed the "
            f"16-Kbit data array"
        )
    array = 0
    for i, word in enumerate(words):
        if word >> width:
            raise ValueError(f"word {i} ({word:#x}) wider than {width} bits")
        data, _parity = _split_word(word, width)
        array |= data << (i * data_width)
    return _chunk_strings(array, _INIT_COUNT)


def bram_initp_strings(words: Sequence[int], width: int) -> List[str]:
    """Pack the *parity* bits of ``words`` into the 8 INITP strings.

    Returns all-zero strings for aspect ratios without parity bits.
    """
    if width <= 0:
        raise ValueError("word width must be positive")
    if width % 9 != 0:
        return _chunk_strings(0, _INITP_COUNT)
    parity_width = width // 9
    total = len(words) * parity_width
    if total > _PARITY_BITS:
        raise ValueError(
            f"{len(words)} words exceed the 2-Kbit parity array"
        )
    array = 0
    for i, word in enumerate(words):
        if word >> width:
            raise ValueError(f"word {i} ({word:#x}) wider than {width} bits")
        _data, parity = _split_word(word, width)
        array |= parity << (i * parity_width)
    return _chunk_strings(array, _INITP_COUNT)


def _bin(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def _emit_mux_section(emit, impl: RomFsmImplementation) -> None:
    """Input-selection logic: the Fig. 4 multiplexer or a plain wire."""
    fsm = impl.fsm
    enc = impl.encoding
    layout = impl.layout
    if impl.compaction is not None:
        emit("  -- Per-state input multiplexer (column compaction, Fig. 4).")
        emit("  mux: process(state, din)")
        emit("  begin")
        emit("    sel_in <= (others => '0');")
        emit("    case state is")
        for state in fsm.states:
            code = enc.encode(state)
            cols = impl.compaction.columns_for(state)
            emit(f'      when "{_bin(code, enc.width)}" =>  -- {state}')
            if not cols:
                emit("        null;")
            for j, col in enumerate(cols):
                emit(f"        sel_in({j}) <= din({col});")
        emit("      when others => null;")
        emit("    end case;")
        emit("  end process;")
    elif layout.input_bits:
        emit("  sel_in <= din;")
    if layout.input_bits:
        emit("  addr <= state & sel_in;")
    else:
        emit("  addr <= state;")


def _emit_enable_section(emit, impl: RomFsmImplementation) -> None:
    """The section 6 idle-detection enable expression (or constant 1)."""
    fsm = impl.fsm
    enc = impl.encoding
    cc = impl.clock_control
    if cc is not None and cc.idle_cover is not None:
        emit("  -- Idle-state clock control (paper section 6): EN low freezes")
        emit("  -- the read, stopping the memory clock without gating logic.")
        terms = []
        s = enc.width
        for cube in cc.idle_cover:
            factors = []
            for var in range(cube.n_vars):
                lit = cube.literal(var)
                if lit == "-":
                    continue
                if var < s:
                    sig = f"state({var})"
                elif var < s + fsm.num_inputs:
                    sig = f"din({var - s})"
                else:
                    sig = f"q({var - s - fsm.num_inputs})"
                factors.append(sig if lit == "1" else f"(not {sig})")
            terms.append(" and ".join(factors) if factors else "'1'")
        joined = "\n        or ".join(f"({t})" for t in terms) or "'0'"
        emit(f"  en <= not ({joined});")
    else:
        emit("  en <= '1';")


def _emit_output_section(emit, impl: RomFsmImplementation) -> None:
    """Moore output LUTs (Fig. 3) or the word's output field."""
    fsm = impl.fsm
    enc = impl.encoding
    layout = impl.layout
    if impl.moore_output_mapping is not None:
        emit("  -- Moore output function in LUTs outside the memory (Fig. 3).")
        emit("  moore: process(state)")
        emit("  begin")
        emit("    dout <= (others => '0');")
        emit("    case state is")
        for state in fsm.states:
            pattern = fsm.moore_output_of(state)
            emit(f'      when "{_bin(enc.encode(state), enc.width)}" =>')
            emit(f'        dout <= "{pattern[::-1]}";  -- {state}')
        emit("      when others => null;")
        emit("    end case;")
        emit("  end process;")
    else:
        emit(f"  dout <= q({max(layout.output_bits - 1, 0)} downto 0);")


def _emit_entity_header(
    emit, impl: RomFsmImplementation, name: str, comment: str
) -> None:
    fsm = impl.fsm
    emit(f"-- {comment}")
    emit(f"-- FSM {fsm.name}: {fsm.num_states} states, {fsm.num_inputs} inputs,")
    emit(f"--   {fsm.num_outputs} outputs; BRAM {impl.config.name} "
         f"x{impl.num_brams}")
    emit("library ieee;")
    emit("use ieee.std_logic_1164.all;")
    emit("use ieee.numeric_std.all;")


def rom_fsm_vhdl(impl: RomFsmImplementation, entity_name: str = None) -> str:
    """Emit a synthesizable VHDL entity for ``impl``."""
    name = entity_name or f"{impl.fsm.name}_romfsm"
    fsm = impl.fsm
    layout = impl.layout
    enc = impl.encoding
    lines: List[str] = []
    emit = lines.append

    emit("-- Generated by repro.romfsm.vhdl (DATE 2004 ROM-FSM reproduction)")
    emit(f"-- FSM {fsm.name}: {fsm.num_states} states, {fsm.num_inputs} inputs,")
    emit(f"--   {fsm.num_outputs} outputs; BRAM {impl.config.name} x{impl.num_brams}")
    emit("library ieee;")
    emit("use ieee.std_logic_1164.all;")
    emit("use ieee.numeric_std.all;")
    emit("")
    emit(f"entity {name} is")
    emit("  port (")
    emit("    clk    : in  std_logic;")
    emit("    reset  : in  std_logic;")
    emit(f"    din    : in  std_logic_vector({max(fsm.num_inputs - 1, 0)} downto 0);")
    emit(f"    dout   : out std_logic_vector({max(fsm.num_outputs - 1, 0)} downto 0)")
    emit("  );")
    emit(f"end entity {name};")
    emit("")
    emit(f"architecture rtl of {name} is")
    emit(f"  constant ADDR_BITS : natural := {layout.addr_bits};")
    emit(f"  constant DATA_BITS : natural := {layout.data_bits};")
    emit("  type rom_t is array (0 to 2**ADDR_BITS - 1) of")
    emit("    std_logic_vector(DATA_BITS - 1 downto 0);")
    emit("  constant ROM : rom_t := (")
    for addr, word in enumerate(impl.contents):
        sep = "," if addr < len(impl.contents) - 1 else ""
        emit(f'    {addr} => "{_bin(word, layout.data_bits)}"{sep}')
    emit("  );")
    emit("  -- Synthesis directive: infer a block RAM, keeping the output")
    emit("  -- register that gives the paper its fixed clock-to-out timing.")
    emit('  attribute rom_style : string;')
    emit('  attribute rom_style of ROM : constant is "block";')
    emit("  signal q      : std_logic_vector(DATA_BITS - 1 downto 0)")
    emit('                  := (others => \'0\');')
    emit("  signal addr   : std_logic_vector(ADDR_BITS - 1 downto 0);")
    emit(f"  signal state  : std_logic_vector({enc.width - 1} downto 0);")
    if layout.input_bits:
        emit(f"  signal sel_in : std_logic_vector({layout.input_bits - 1} downto 0);")
    emit("  signal en     : std_logic;")
    emit("begin")
    emit(f"  state <= q({layout.data_bits - 1} downto {layout.output_bits});")

    _emit_mux_section(emit, impl)
    _emit_enable_section(emit, impl)

    emit("  -- Synchronous read with enable: the BlockRAM primitive itself.")
    emit("  read: process(clk)")
    emit("  begin")
    emit("    if rising_edge(clk) then")
    emit("      if reset = '1' then")
    emit("        q <= (others => '0');")
    emit("      elsif en = '1' then")
    emit("        q <= ROM(to_integer(unsigned(addr)));")
    emit("      end if;")
    emit("    end if;")
    emit("  end process;")

    _emit_output_section(emit, impl)

    emit("end architecture rtl;")
    return "\n".join(lines) + "\n"


_PRIMITIVE_OF_WIDTH = {36: "RAMB16_S36", 18: "RAMB16_S18", 9: "RAMB16_S9",
                       4: "RAMB16_S4", 2: "RAMB16_S2", 1: "RAMB16_S1"}


def rom_fsm_vhdl_structural(
    impl: RomFsmImplementation, entity_name: str = None
) -> str:
    """Emit VHDL instantiating the Virtex-II RAMB16 primitives directly.

    This is the style the paper used: "the blockrams were instantiated
    in the VHDL code and connection to their address lines and outputs
    were made.  The contents of the blockrams were initialized in the
    VHDL code" (section 5).  One ``RAMB16_Sw`` primitive is emitted per
    parallel lane with its ``INIT_xx``/``INITP_xx`` generics generated
    by :func:`bram_init_strings` / :func:`bram_initp_strings`.

    Series-joined mappings (address spaces beyond one block) use
    vendor-specific cascading and are not supported by this emitter;
    use :func:`rom_fsm_vhdl` (inferred style) for those.
    """
    if impl.series_brams > 1:
        raise ValueError(
            "structural emission supports single-depth mappings only; "
            "use rom_fsm_vhdl for series-joined blocks"
        )
    name = entity_name or f"{impl.fsm.name}_romfsm"
    fsm = impl.fsm
    layout = impl.layout
    enc = impl.encoding
    config = impl.config
    primitive = _PRIMITIVE_OF_WIDTH[config.width]
    lanes = impl.parallel_brams
    lines: List[str] = []
    emit = lines.append

    _emit_entity_header(
        emit, impl, name,
        "Generated by repro.romfsm.vhdl (structural RAMB16 instantiation)",
    )
    emit("library unisim;")
    emit("use unisim.vcomponents.all;")
    emit("")
    emit(f"entity {name} is")
    emit("  port (")
    emit("    clk    : in  std_logic;")
    emit("    reset  : in  std_logic;")
    emit(f"    din    : in  std_logic_vector({max(fsm.num_inputs - 1, 0)} "
         f"downto 0);")
    emit(f"    dout   : out std_logic_vector({max(fsm.num_outputs - 1, 0)} "
         f"downto 0)")
    emit("  );")
    emit(f"end entity {name};")
    emit("")
    emit(f"architecture structural of {name} is")
    emit(f"  signal q      : std_logic_vector({layout.data_bits - 1} "
         f"downto 0);")
    emit(f"  signal addr   : std_logic_vector({config.addr_bits - 1} "
         f"downto 0) := (others => '0');")
    emit(f"  signal state  : std_logic_vector({enc.width - 1} downto 0);")
    if layout.input_bits:
        emit(f"  signal sel_in : std_logic_vector({layout.input_bits - 1} "
             f"downto 0);")
    emit("  signal en     : std_logic;")
    emit("  signal wide_addr : std_logic_vector"
         f"({layout.addr_bits - 1} downto 0);")
    emit("begin")
    emit(f"  state <= q({layout.data_bits - 1} downto {layout.output_bits});")

    # The shared-helper sections drive `wide_addr`; pad up to the
    # primitive's port width.
    mux_lines: List[str] = []
    _emit_mux_section(mux_lines.append, impl)
    for line in mux_lines:
        emit(line.replace("addr <=", "wide_addr <="))
    pad = config.addr_bits - layout.addr_bits
    if pad > 0:
        emit(f'  addr <= "{"0" * pad}" & wide_addr;')
    else:
        emit("  addr <= wide_addr;")

    _emit_enable_section(emit, impl)

    for lane in range(lanes):
        lo = lane * config.width
        hi = min(lo + config.width, layout.data_bits) - 1
        lane_bits = hi - lo + 1
        lane_words = [
            (word >> lo) & ((1 << lane_bits) - 1) for word in impl.contents
        ]
        init = bram_init_strings(lane_words, config.width)
        initp = bram_initp_strings(lane_words, config.width)
        emit(f"  lane{lane}: {primitive}")
        emit("    generic map (")
        hex_chars = -(-config.width // 4)
        emit('      INIT  => X"' + "0" * hex_chars + '",')
        emit('      SRVAL => X"' + "0" * hex_chars + '",')
        generics = [
            f'      INIT_{i:02X} => X"{value}"'
            for i, value in enumerate(init)
        ]
        if config.width % 9 == 0:
            generics += [
                f'      INITP_{i:02X} => X"{value}"'
                for i, value in enumerate(initp)
            ]
        emit(",\n".join(generics))
        emit("    )")
        emit("    port map (")
        if config.width == 1:
            emit(f"      DO(0) => q({lo}),")
        else:
            emit(f"      DO({lane_bits - 1} downto 0) => "
                 f"q({hi} downto {lo}),")
            if lane_bits < config.width:
                emit(f"      DO({config.width - 1} downto {lane_bits}) "
                     f"=> open,")
        emit("      DI   => (others => '0'),")
        emit("      ADDR => addr,")
        emit("      CLK  => clk,")
        emit("      EN   => en,")
        emit("      SSR  => reset,")
        emit("      WE   => '0'")
        emit("    );")

    _emit_output_section(emit, impl)
    emit("end architecture structural;")
    return "\n".join(lines) + "\n"
