package device

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// MarshalText writes the technology's display name.
func (t Technology) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText reads a technology display name.
func (t *Technology) UnmarshalText(b []byte) (err error) {
	*t, err = parseName("technology", string(b), CMOSPlanar, TriGate)
	return err
}

// MarshalText writes the kind's display name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a kind display name.
func (k *Kind) UnmarshalText(b []byte) (err error) {
	*k, err = parseName("kind", string(b), KindCPU, KindFPGA)
	return err
}

// parseName returns the value in [first, last] whose String is name.
func parseName[T interface {
	~int
	String() string
}](what, name string, first, last T) (T, error) {
	var names []string
	for v := first; v <= last; v++ {
		if v.String() == name {
			return v, nil
		}
		names = append(names, v.String())
	}
	return 0, fmt.Errorf("unknown %s %q (want one of: %s)", what, name, strings.Join(names, ", "))
}

// UnmarshalJSON decodes a device model strictly, rejecting unknown
// members and unknown names, and validates it.
func (d *Device) UnmarshalJSON(data []byte) error {
	type plain Device // no methods: decoding it does not recurse
	var raw plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return fmt.Errorf("device: parse: %w", err)
	}
	*d = Device(raw)
	return d.Validate()
}

// Load reads a device model from JSON: one object, with nothing but
// whitespace after it.
func Load(r io.Reader) (*Device, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("device: read: %w", err)
	}
	d := &Device{}
	if err := json.Unmarshal(data, d); err != nil {
		// A syntax error, trailing content included, is json.Unmarshal's
		// own; UnmarshalJSON's errors already start with "device".
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) {
			return nil, fmt.Errorf("device: parse: %w", err)
		}
		return nil, err
	}
	return d, nil
}

// Save writes the device model as indented JSON.
func Save(w io.Writer, d *Device) error {
	if d == nil {
		return fmt.Errorf("device: nil device")
	}
	if err := d.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
