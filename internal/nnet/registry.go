package nnet

// BuilderFunc constructs a network at a given batch size.
type BuilderFunc func(batch int) *Net

// Registry maps the canonical network names used throughout the
// evaluation to their builders, in the order the paper's tables list
// them.
var Registry = []struct {
	Name  string
	Build BuilderFunc
}{
	{"AlexNet", AlexNet},
	{"VGG16", VGG16},
	{"VGG19", VGG19},
	{"InceptionV4", InceptionV4},
	{"ResNet50", func(n int) *Net { return ResNet(50, n) }},
	{"ResNet101", func(n int) *Net { return ResNet(101, n) }},
	{"ResNet152", func(n int) *Net { return ResNet(152, n) }},
	{"DenseNet121", DenseNet121},
}

// ByName returns the builder for a canonical network name, or nil.
func ByName(name string) BuilderFunc {
	for _, e := range Registry {
		if e.Name == name {
			return e.Build
		}
	}
	return nil
}
