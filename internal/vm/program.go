package vm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// Func is one function in an MVM program.
type Func struct {
	Name    string
	NArgs   int
	NLocals int
	Code    []byte
}

// Program is a shippable unit of middleware code — the MVM analogue of a
// compiled Java class in the paper. A program bundles a constants pool and
// one or more functions. By convention a scalar operator exposes a
// function named "eval", and an aggregate operator exposes "reset",
// "update" and "summarize" operating on NGlobals state slots (the
// Reset/Update/Summarize protocol of section 3.8).
type Program struct {
	Name     string
	Version  string
	NGlobals int
	Consts   []Value
	Funcs    []Func

	// verified is stamped by Verify on success. It never travels on the
	// wire: Decode leaves it nil, so a receiving site must re-verify
	// before a Machine will run the program at all (zero trust).
	verified *VerifyInfo
}

// Verified returns the program's verification result, or nil if Verify
// has not succeeded on this exact in-memory program.
func (p *Program) Verified() *VerifyInfo { return p.verified }

// FuncIndex returns the index of the named function, or -1.
func (p *Program) FuncIndex(name string) int {
	for i := range p.Funcs {
		if p.Funcs[i].Name == name {
			return i
		}
	}
	return -1
}

// CodeSize returns the total bytecode size across functions, used for
// reporting how many bytes code shipping actually moves.
func (p *Program) CodeSize() int {
	var n int
	for i := range p.Funcs {
		n += len(p.Funcs[i].Code)
	}
	return n
}

// Program serialization: this is the on-wire "class file" format.
//
//	magic "MVM1"
//	name, version     (u16-prefixed strings)
//	nglobals          (u32)
//	nconsts           (u32) then each: kind byte + payload
//	nfuncs            (u32) then each: name, u32 nargs, u32 nlocals,
//	                  u32 codelen, code bytes
const progMagic = "MVM1"

// maxDecodeLen bounds individual length fields during decoding so a
// corrupt or hostile class file cannot force huge allocations.
const maxDecodeLen = 64 << 20

// Encode serializes the program to its wire format.
func (p *Program) Encode() []byte {
	buf := make([]byte, 0, 256+p.CodeSize())
	buf = append(buf, progMagic...)
	buf = appendStr(buf, p.Name)
	buf = appendStr(buf, p.Version)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.NGlobals))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Consts)))
	for _, c := range p.Consts {
		buf = append(buf, byte(c.K))
		switch c.K {
		case VInt, VBool:
			buf = binary.BigEndian.AppendUint64(buf, uint64(c.I))
		case VFloat:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(c.F))
		case VStr:
			buf = appendStr(buf, c.S)
		case VBytes:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.B)))
			buf = append(buf, c.B...)
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Funcs)))
	for i := range p.Funcs {
		f := &p.Funcs[i]
		buf = appendStr(buf, f.Name)
		buf = binary.BigEndian.AppendUint32(buf, uint32(f.NArgs))
		buf = binary.BigEndian.AppendUint32(buf, uint32(f.NLocals))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Code)))
		buf = append(buf, f.Code...)
	}
	return buf
}

// Checksum returns a hex digest of the encoded program, used by the DAP
// code cache to validate that its cached copy matches the repository's.
func (p *Program) Checksum() string {
	sum := sha256.Sum256(p.Encode())
	return hex.EncodeToString(sum[:8])
}

type decoder struct {
	data []byte
	off  int
}

func (d *decoder) u32() (int, error) {
	if d.off+4 > len(d.data) {
		return 0, fmt.Errorf("vm: truncated program at offset %d", d.off)
	}
	v := binary.BigEndian.Uint32(d.data[d.off:])
	d.off += 4
	if v > maxDecodeLen {
		return 0, fmt.Errorf("vm: length field %d exceeds limit", v)
	}
	return int(v), nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.data) {
		return 0, fmt.Errorf("vm: truncated program at offset %d", d.off)
	}
	v := binary.BigEndian.Uint64(d.data[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) str() (string, error) {
	if d.off+2 > len(d.data) {
		return "", fmt.Errorf("vm: truncated string at offset %d", d.off)
	}
	n := int(binary.BigEndian.Uint16(d.data[d.off:]))
	d.off += 2
	if d.off+n > len(d.data) {
		return "", fmt.Errorf("vm: truncated string body at offset %d", d.off)
	}
	s := string(d.data[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if d.off+n > len(d.data) {
		return nil, fmt.Errorf("vm: truncated bytes at offset %d", d.off)
	}
	b := make([]byte, n)
	copy(b, d.data[d.off:])
	d.off += n
	return b, nil
}

// Decode parses a serialized program. The result is structurally parsed
// but not yet verified; callers must run Verify before execution.
func Decode(data []byte) (*Program, error) {
	if len(data) < 4 || string(data[:4]) != progMagic {
		return nil, fmt.Errorf("vm: bad magic, not an MVM program")
	}
	d := &decoder{data: data, off: 4}
	p := &Program{}
	var err error
	if p.Name, err = d.str(); err != nil {
		return nil, err
	}
	if p.Version, err = d.str(); err != nil {
		return nil, err
	}
	if p.NGlobals, err = d.u32(); err != nil {
		return nil, err
	}
	nconsts, err := d.u32()
	if err != nil {
		return nil, err
	}
	p.Consts = make([]Value, 0, nconsts)
	for i := 0; i < nconsts; i++ {
		if d.off >= len(d.data) {
			return nil, fmt.Errorf("vm: truncated constant %d", i)
		}
		k := VKind(d.data[d.off])
		d.off++
		var v Value
		switch k {
		case VInt, VBool:
			u, err := d.u64()
			if err != nil {
				return nil, err
			}
			v = Value{K: k, I: int64(u)}
		case VFloat:
			u, err := d.u64()
			if err != nil {
				return nil, err
			}
			v = Value{K: VFloat, F: math.Float64frombits(u)}
		case VStr:
			s, err := d.str()
			if err != nil {
				return nil, err
			}
			v = StrVal(s)
		case VBytes:
			n, err := d.u32()
			if err != nil {
				return nil, err
			}
			b, err := d.bytes(n)
			if err != nil {
				return nil, err
			}
			v = BytesVal(b)
		default:
			return nil, fmt.Errorf("vm: constant %d has unknown kind %d", i, k)
		}
		p.Consts = append(p.Consts, v)
	}
	nfuncs, err := d.u32()
	if err != nil {
		return nil, err
	}
	p.Funcs = make([]Func, 0, nfuncs)
	for i := 0; i < nfuncs; i++ {
		var f Func
		if f.Name, err = d.str(); err != nil {
			return nil, err
		}
		if f.NArgs, err = d.u32(); err != nil {
			return nil, err
		}
		if f.NLocals, err = d.u32(); err != nil {
			return nil, err
		}
		clen, err := d.u32()
		if err != nil {
			return nil, err
		}
		if f.Code, err = d.bytes(clen); err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, f)
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("vm: %d trailing bytes after program", len(d.data)-d.off)
	}
	return p, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}
