// Package regdoc renders REGISTERS.md from the live register schema.
//
// The declarative banks in internal/regmap carry their own metadata
// (register names, offsets, access modes, one-line docs), so the
// memory-map documentation is generated, never hand-maintained: `nocgen
// regs` prints this package's output and `make check` fails when the
// committed REGISTERS.md drifts from the schema.
package regdoc

import (
	"fmt"
	"strings"

	"nocemu/internal/platform"
	"nocemu/internal/probe"
	"nocemu/internal/regmap"
	"nocemu/internal/traffic"
)

// SchemaBank is the documentation surface every declarative bank
// exposes (satisfied by *regmap.Bank and anything embedding it).
type SchemaBank interface {
	DocInfo() (title, note string)
	Specs() []regmap.RegSpec
}

const header = `# REGISTERS — the platform's memory map

> Generated by ` + "`nocgen regs`" + ` from the declarative register schema in
> ` + "`internal/regmap`" + `. Do not edit by hand: ` + "`make check`" + ` fails when this
> file drifts from the schema.

The paper's processor "can access each component by accessing their
specific addresses ... up to 4 internal busses and 1024 devices in each
internal bus". The reproduction keeps the 4 buses and widens the device
field, so that map is the low corner of one where every device of a
platform of any size has an address. This file documents the register map,
implemented by ` + "`internal/bus`" + ` (decode) and ` + "`internal/regmap`" + ` /
` + "`internal/control`" + ` (device banks). All registers are 32-bit; 64-bit
counters are exposed as little-endian lo/hi pairs (` + "`bus.Read64`" + `).
Reading a pair's LO register latches the HI word, so a lo-then-hi
sequence observes one consistent value even mid-run.

## Address format

` + "```" + `
bit  31 30 | 29 ............. 12 | 11 ............. 0
     bus   | device (0..262143)  | register offset
` + "```" + `

` + "`bus.MakeAddr(bus, dev, reg)`" + ` assembles an address;
` + "`System.Find(name)`" + ` locates a device by instance name.

## Bus assignment (platform builder)

| bus | contents |
|---|---|
| 0 | control module (dev 0), then one device per switch |
| 1 | traffic generators, in spec order |
| 2 | traffic receptors, in spec order |
| 3 | flit pool (dev 0), the links (dev 1: one device for every inter-switch link, selected by ` + "`LINK_SEL`" + `), then the trace-metrics probe when tracing is enabled |
`

const footer = `## Programs

` + "`control.Program`" + ` is the emulation software: a list of
` + "`write / read / read64 / run / run-until-done`" + ` instructions addressed
by device name. ` + "`control.Compile`" + ` (flow step 4) resolves names and
validates offsets before the run; see ` + "`examples/paperplatform`" + ` for a
complete program.
`

// offsetCell formats a register's offset column: plain offset, lo/hi
// pair, or window span.
func offsetCell(s regmap.RegSpec) string {
	switch {
	case s.Count > 0:
		return fmt.Sprintf("0x%03X+i (i<%d)", s.Offset, s.Count)
	case s.Words == 2:
		return fmt.Sprintf("0x%03X/%X", s.Offset, (s.Offset+1)&0xF)
	default:
		return fmt.Sprintf("0x%03X", s.Offset)
	}
}

// renderBank renders one device class section from a live bank.
func renderBank(sb *strings.Builder, b SchemaBank) {
	title, note := b.DocInfo()
	fmt.Fprintf(sb, "## %s\n\n", title)
	fmt.Fprintln(sb, "| offset | name | access | meaning |")
	fmt.Fprintln(sb, "|---|---|---|---|")
	for _, s := range b.Specs() {
		name := s.Name
		if s.Count > 0 {
			name += "[i]"
		}
		fmt.Fprintf(sb, "| %s | %s | %s | %s |\n", offsetCell(s), name, s.Access, s.Doc)
	}
	if note != "" {
		fmt.Fprintf(sb, "\n%s\n", note)
	}
	fmt.Fprintln(sb)
}

// paramTables renders the model parameter window tables: one row per
// traffic model in the table whose generator is Parameterized.
func paramTables(sb *strings.Builder) error {
	fmt.Fprintln(sb, "### Model parameter windows")
	fmt.Fprintln(sb)
	fmt.Fprintln(sb, "`PARAM[i]` semantics per model (Q16 = probability × 65536;")
	fmt.Fprintln(sb, "the trace model's `remaining` is read-only):")
	fmt.Fprintln(sb)
	maxParams := 0
	var rows [][]string
	for _, m := range traffic.Models() {
		gen, err := m.Sample()
		if err != nil {
			return fmt.Errorf("regdoc: %s model: %w", m.Name, err)
		}
		p, ok := gen.(traffic.Parameterized)
		if !ok {
			continue
		}
		names := p.ParamNames()
		if len(names) > maxParams {
			maxParams = len(names)
		}
		rows = append(rows, append([]string{m.Name}, names...))
	}
	fmt.Fprint(sb, "| model |")
	for i := 0; i < maxParams; i++ {
		fmt.Fprintf(sb, " PARAM[%d] |", i)
	}
	fmt.Fprintln(sb)
	fmt.Fprint(sb, "|---|")
	fmt.Fprintln(sb, strings.Repeat("---|", maxParams))
	for _, row := range rows {
		fmt.Fprint(sb, "| ")
		fmt.Fprint(sb, row[0])
		for i := 0; i < maxParams; i++ {
			cell := "—"
			if i+1 < len(row) {
				cell = row[i+1]
			}
			fmt.Fprintf(sb, " | %s", cell)
		}
		fmt.Fprintln(sb, " |")
	}
	fmt.Fprintln(sb)
	return nil
}

// banks instantiates one representative bank per device class, in
// documentation order.
func banks() ([]SchemaBank, error) {
	// The main platform classes come from a real (paper) platform so the
	// docs can never diverge from what Build attaches to the buses.
	p, err := platform.BuildPaper(platform.PaperOptions{})
	if err != nil {
		return nil, fmt.Errorf("regdoc: build reference platform: %w", err)
	}
	byType := map[uint32]SchemaBank{}
	for _, at := range p.System().Attachments() {
		b, ok := at.Device.(SchemaBank)
		if !ok {
			return nil, fmt.Errorf("regdoc: device %s is not a schema bank", at.Device.DeviceName())
		}
		typ, err := at.Device.ReadReg(regmap.RegType)
		if err != nil {
			return nil, err
		}
		if _, seen := byType[typ]; !seen {
			byType[typ] = b
		}
	}

	order := []uint32{
		regmap.TypeControl, regmap.TypeTG, regmap.TypeTR,
		regmap.TypeSwitch, regmap.TypeLink, regmap.TypePool,
	}
	var out []SchemaBank
	for _, typ := range order {
		b, ok := byType[typ]
		if !ok {
			return nil, fmt.Errorf("regdoc: platform has no device of type %d", typ)
		}
		out = append(out, b)
	}
	// The probe bank is only attached when tracing is configured;
	// document it from a standalone collector so the section is always
	// present.
	return append(out, regmap.NewProbeDevice(probe.NewCollector(probe.Config{}))), nil
}

// Render produces the full REGISTERS.md content from the live schema.
func Render() (string, error) {
	bs, err := banks()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(header)
	sb.WriteString("\n")
	for _, b := range bs {
		renderBank(&sb, b)
		if title, _ := b.DocInfo(); strings.HasPrefix(title, "Traffic generator") {
			if err := paramTables(&sb); err != nil {
				return "", err
			}
		}
	}
	sb.WriteString(footer)
	return sb.String(), nil
}
